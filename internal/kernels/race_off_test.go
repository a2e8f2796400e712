//go:build !race

package kernels

// raceDetectorEnabled relaxes allocation pins under -race: the race
// detector randomly drops sync.Pool puts, so pooled scratch paths show
// spurious allocations that do not exist in normal builds.
const raceDetectorEnabled = false

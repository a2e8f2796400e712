//go:build !amd64 || purego

package kernels

// stripPaths lists the paths of addRows: the pure-Go strip only.
func stripPaths() []string { return []string{"purego"} }

// forceStripPath is a no-op: the pure-Go strip has one path.
func forceStripPath(string) (restore func()) { return func() {} }

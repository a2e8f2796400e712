//go:build !purego

package kernels

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// stripPaths lists the paths of addRows this CPU can run: "avx2" when
// it has AVX2, and always "sse".
func stripPaths() []string {
	if hasAVX2() {
		return []string{"avx2", "sse"}
	}
	return []string{"sse"}
}

// forceStripPath makes addRows run on path until the returned func
// restores the path chosen at start-up.
func forceStripPath(path string) (restore func()) {
	old := useAVX2
	useAVX2 = path == "avx2"
	return func() { useAVX2 = old }
}

// TestStripPathMatchesCPU: when Linux lists avx2 among the CPU flags,
// the kernels run on the AVX2 path, and otherwise on SSE. A detection
// bug would fall back to SSE silently, with every oracle test green.
func TestStripPathMatchesCPU(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the CPU flags: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			want := "sse"
			if slices.Contains(strings.Fields(flags), "avx2") {
				want = "avx2"
			}
			if got := StripPath(); got != want {
				t.Fatalf("StripPath() = %q; /proc/cpuinfo says %q", got, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo lists no flags")
}

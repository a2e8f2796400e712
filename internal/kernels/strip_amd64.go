//go:build !purego

package kernels

// addStrips adds the n (col, val) pairs of a strided run (see run) into
// y[0:k&^3], where y is an output row and x the row-major k-column data
// of X with xrows rows. Each lane starts at +0 (or at y's value when
// accum is set) and adds v·X[c][lane] in pair order with a separate
// multiply and add, never FMA, so each lane rounds exactly as Go's
// scalar MULSS/ADDSS code does. It returns false, leaving y partly
// written, on a column outside [0, xrows).
//
// There are two paths behind this one entry point, chosen by useAVX2.
// The AVX2 path walks the run once per 16-column strip (two YMM lanes),
// then once for an 8-column strip when k&15 >= 8, then leaves YMM code
// with VZEROUPPER and runs a last 4-column strip in the SSE loop. The
// SSE path, the amd64 baseline and the fallback on CPUs without AVX2,
// walks it once per 16-column strip (four XMM lanes) and then once per
// remaining 4-column strip. Both give the same bits.
//
//go:noescape
func addStrips(y, x *float32, k, xrows int, cols *int32, vals *float32, n, stride int, accum bool) (ok bool)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// (CPUID and XGETBV).
func hasAVX2() bool

// useAVX2 selects addStrips' AVX2 path. It is set once at start-up from
// hasAVX2; the assembly reads it on every call.
var useAVX2 = hasAVX2()

// StripPath names the strip primitive every SpMM row loop runs on:
// "avx2" or "sse" on amd64, "purego" elsewhere and under the purego
// build tag.
func StripPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "sse"
}

//go:build !purego

package kernels

// addRows is the strip primitive: one call computes all k columns of
// rows [lo, hi) of a sparse operand times X. Row i holds the
// pairs [rowptr[i], rowptr[i+1]) of a strided run of npairs (col, val)
// pairs (see run) and is written to row dst[i] of y, or row i when dst
// is nil; y and x are row-major with k columns, yrows and xrows rows.
// Each element starts at +0 (or at y's value when accum is set) and
// adds v·X[c][col] in pair order with a separate multiply and add,
// never FMA, so each rounds exactly as Go's scalar MULSS/ADDSS code
// does. It checks every index it follows, each unsigned: a row's pairs
// lie inside [0, npairs] in increasing order, every column is below
// xrows and every output row below yrows. On a failed check it returns
// false, leaving y partly written.
//
// There are two paths behind this one entry point, chosen by useAVX2.
// The AVX2 path walks each row once per 16-column strip (two YMM
// lanes), then once for an 8-column strip when k&15 >= 8, then leaves
// YMM code with VZEROUPPER and runs a last 4-column strip in the SSE
// loop. The SSE path, the amd64 baseline and the fallback on CPUs
// without AVX2, walks each row once per 16-column strip (four XMM
// lanes) and then once per remaining 4-column strip. Both then finish
// the last k%4 columns in one more walk with a scalar MULSS/ADDSS
// accumulator per column; below k = 4 that is the row's only walk. At
// k = 1 both paths walk rows two at a time, a pair of each per step,
// so the two rows' add chains overlap; each row still sums in its own
// pair order. Both paths give the same bits. With accum set at k = 1
// the pair walk reads both rows' stored values before it writes either,
// so dst must not repeat an output row (every row map is a
// permutation).
//
//go:noescape
func addRows(y *float32, dst *int32, yrows int, rowptr *int32, lo, hi int, cols *int32, vals *float32, npairs, stride int, x *float32, k, xrows int, accum bool) (ok bool)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// (CPUID and XGETBV).
func hasAVX2() bool

// useAVX2 selects addRows' AVX2 path. It is set once at start-up from
// hasAVX2; the assembly reads it on every row.
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

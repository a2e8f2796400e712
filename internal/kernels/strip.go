package kernels

import (
	"errors"
	"unsafe"

	"repro/internal/ellpack"
	"repro/internal/sparse"
)

// errBadIndex is the panic value of a row loop that meets an index the
// strip primitive refuses: a column outside X's rows, an output row
// outside Y's rows, or a row's pairs outside its arrays. Each is a
// corrupt plan or row map that validation should have rejected. The
// executor recovers it into a *par.PanicError, so the call fails
// without reading or writing outside its operands.
var errBadIndex = errors.New("kernels: column, output row or row pointer out of range")

// run is a strided run of (col, val) pairs: pair j is the int32 at
// cols+j·stride bytes and the float32 at vals+j·stride bytes. It holds
// one row's pairs, or a whole operand's that a row pointer splits into
// rows (see spmmRows). One shape covers every format the SpMM kernels
// read: CSR arrays (stride 4), HYB's slot-major slab (stride 4·Rows)
// and HYB's COO spill (stride sizeof(sparse.Entry)). The constructors
// check that every pair lies inside its arrays; the zero run is empty.
type run struct {
	cols      *int32
	vals      *float32
	n, stride int
}

// sliceRun is the run over a CSR segment's cols and vals.
func sliceRun(cols []int32, vals []float32) run {
	vals = vals[:len(cols)]
	return run{unsafe.SliceData(cols), unsafe.SliceData(vals), len(cols), 4}
}

// slabRun is the run over row i's slots of an ELL slab: slot s sits at
// Cols/Vals[s·Rows+i].
func slabRun(e *ellpack.Matrix, i int) run {
	n := int(e.RowLen[i])
	if n <= 0 {
		return run{}
	}
	last := i + (n-1)*e.Rows
	_, _ = e.Cols[last], e.Vals[last] // every slot lies inside the slab
	return run{&e.Cols[i], &e.Vals[i], n, 4 * e.Rows}
}

// spillRun is the run over a row's COO spill entries.
func spillRun(spill []sparse.Entry) run {
	if len(spill) == 0 {
		return run{}
	}
	return run{&spill[0].Col, &spill[0].Val, len(spill), int(unsafe.Sizeof(spill[0]))}
}

// spmmRows computes rows [lo, hi) of S·X into yd, the row-major
// k-column output: row i of S holds the pairs [rowptr[i], rowptr[i+1])
// of the run p and is written to output row dst[i], or row i when dst
// is nil. xd is X's row-major data with k columns. With accum set, each
// output element continues from its stored value instead of +0, which
// is how a row given as two runs (ASpT's tile then rest, HYB's slab
// then spill) sums them into one accumulator.
//
// Every column of every row goes through one call of addRows, the
// register-blocked strip primitive: AVX2 or SSE assembly on amd64,
// plain Go elsewhere (and under the purego tag). Each element starts
// at +0 and adds its products, each rounded to float32 before the add
// (never fused), in pair order, so the result is bit-identical to Alg
// 1's unblocked yi[k] += v·X[c][k] loop (TestSpMMKernelsMatchOracle).
// An index out of range panics with errBadIndex.
func spmmRows(yd, xd []float32, k int, dst, rowptr []int32, lo, hi int, p run, accum bool) {
	if k == 0 {
		return
	}
	// addRows reads rowptr[lo..hi] and dst[lo..hi-1] without bounds checks.
	_ = rowptr[lo : hi+1]
	if dst != nil {
		_ = dst[lo:hi]
	}
	if !addRows(unsafe.SliceData(yd), unsafe.SliceData(dst), len(yd)/k,
		unsafe.SliceData(rowptr), lo, hi, p.cols, p.vals, p.n, p.stride,
		unsafe.SliceData(xd), k, len(xd)/k, accum) {
		panic(errBadIndex)
	}
}

// spmmRun computes one output row yi of S·X from the run r: spmmRows
// over a single row whose pairs are the whole run. It serves the row
// loops whose rows have no row pointer into one run (HYB's slab slots
// and spill entries), single rows outside a kernel pass (SpMMRow) and
// the merge kernel's fragments of a row.
func spmmRun(yi, xd []float32, r run, accum bool) {
	ptr := [2]int32{0, int32(r.n)}
	spmmRows(yi, xd, len(yi), nil, ptr[:], 0, 1, r, accum)
}

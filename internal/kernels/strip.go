package kernels

import (
	"errors"
	"unsafe"

	"repro/internal/ellpack"
	"repro/internal/sparse"
)

// errBadColumn is the panic value of a row loop that meets a column
// index outside X's rows: a corrupt plan, which validation should have
// rejected. The executor recovers it into a *par.PanicError, so the call
// fails without reading outside X.
var errBadColumn = errors.New("kernels: column index out of range of X")

// run is a strided run of one row's (col, val) pairs: pair j is the
// int32 at cols+j·stride bytes and the float32 at vals+j·stride bytes.
// One shape covers every format the SpMM kernels read: CSR slices
// (stride 4), HYB's slot-major slab (stride 4·Rows) and HYB's COO spill
// (stride sizeof(sparse.Entry)). The constructors check that every pair
// lies inside its arrays; the zero run is empty.
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

// at returns pair j of r.
func (r run) at(j int) (int32, float32) {
	o := uintptr(j * r.stride)
	return *(*int32)(unsafe.Add(unsafe.Pointer(r.cols), o)),
		*(*float32)(unsafe.Add(unsafe.Pointer(r.vals), o))
}

// spmmRow computes one output row of S·X, yi[k] = Σ v·X[c][k], over the
// row's nonzeros given as two runs summed in order: the whole CSR row
// (second run empty) for row-wise and merge, the dense-tile part then
// the leftover part for ASpT, the slab slots then the spill entries for
// HYB. xd is X's row-major data with len(yi) columns.
//
// The first K&^3 columns go through addStrips, the register-blocked
// strip primitive: AVX2 or SSE assembly on amd64, plain Go elsewhere
// (and under the purego tag). The last K%4 columns run one scalar accumulator each.
// Every element starts at +0 and adds its products, each rounded to
// float32 before the add (never fused), in nonzero order, run by run, so
// the result is bit-identical to Alg 1's unblocked
// yi[k] += v·X[c][k] loop (TestSpMMKernelsMatchOracle). A column outside
// X's rows panics with errBadColumn, or with the scalar tail's index
// error.
func spmmRow(yi, xd []float32, r0, r1 run) {
	k := len(yi)
	k4 := k &^ 3
	if k4 > 0 {
		y, x, xrows := &yi[0], unsafe.SliceData(xd), len(xd)/k
		if !addStrips(y, x, k, xrows, r0.cols, r0.vals, r0.n, r0.stride, false) ||
			r1.n > 0 && !addStrips(y, x, k, xrows, r1.cols, r1.vals, r1.n, r1.stride, true) {
			panic(errBadColumn)
		}
	}
	for off := k4; off < k; off++ {
		var a float32
		for j := 0; j < r0.n; j++ {
			c, v := r0.at(j)
			a += float32(v * xd[int(c)*k+off])
		}
		for j := 0; j < r1.n; j++ {
			c, v := r1.at(j)
			a += float32(v * xd[int(c)*k+off])
		}
		yi[off] = a
	}
}

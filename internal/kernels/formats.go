package kernels

// HYB (ELL slab + COO spill) SpMM on the shared executor. ellpack's
// own SpMM methods are single-threaded reference loops; this entry
// point gives the format the same contract as SpMMRowWiseIntoCtx —
// nnz-balanced chunking over the pooled worker set, cooperative
// cancellation, panic isolation, obs spans, and zero steady-state
// allocations — so the pipeline can select it per matrix (see the
// kernel autotuner in internal/reorder). Pure ELL is the zero-spill
// case of HYB, so it needs no entry point of its own.
//
// The kernel walks rows: for each row it reads the row's slab slots
// (slot s of row i at Cols/Vals[s*Rows+i]), then the row's spill
// entries, in the same register-blocked K-strips as spmmRow. The slab
// stays slot-major because that is the GPU's coalesced layout, which
// gpusim (ellpack.SimulateSpMMHybrid) still models; on the CPU the row
// walk keeps each output row's accumulators in registers. Spill is
// row-major sorted and chunk row ranges tile [0, rows), so each chunk
// finds its first spill entry once and no two chunks write the same
// output row.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func checkELLShapes(e *ellpack.Matrix, x *dense.Matrix) error {
	if e.NCols != x.Rows {
		return fmt.Errorf("kernels: SpMM shape mismatch: E is %dx%d, X is %dx%d",
			e.Rows, e.NCols, x.Rows, x.Cols)
	}
	return nil
}

func checkELLOut(e *ellpack.Matrix, x, y *dense.Matrix) error {
	if y.Rows != e.Rows || y.Cols != x.Cols {
		return fmt.Errorf("kernels: SpMM output is %dx%d, want %dx%d",
			y.Rows, y.Cols, e.Rows, x.Cols)
	}
	return nil
}

// SpMMHybrid computes Y = H·X from the HYB (ELL + COO spill)
// representation. It allocates and returns Y (H.ELL.Rows × X.Cols).
func SpMMHybrid(h *ellpack.Hybrid, x *dense.Matrix) (*dense.Matrix, error) {
	if err := checkELLShapes(h.ELL, x); err != nil {
		return nil, err
	}
	y := dense.New(h.ELL.Rows, x.Cols)
	return y, SpMMHybridIntoCtx(context.Background(), y, h, x)
}

// SpMMHybridIntoCtx computes Y = H·X into the caller-provided y
// (H.ELL.Rows × X.Cols), overwriting its contents, with cooperative
// cancellation between chunks and panic isolation. On error the output
// contents are unspecified. At steady state the call performs no heap
// allocations.
func SpMMHybridIntoCtx(ctx context.Context, y *dense.Matrix, h *ellpack.Hybrid, x *dense.Matrix) error {
	return SpMMHybridIntoRowsCtx(ctx, y, nil, h, x)
}

// SpMMHybridIntoRowsCtx is SpMMHybridIntoCtx writing row i of the
// product to row dst[i] of y (see checkRowMap).
func SpMMHybridIntoRowsCtx(ctx context.Context, y *dense.Matrix, dst []int32, h *ellpack.Hybrid, x *dense.Matrix) error {
	if err := checkELLShapes(h.ELL, x); err != nil {
		return err
	}
	if err := checkELLOut(h.ELL, x, y); err != nil {
		return err
	}
	if err := checkRowMap(dst, h.ELL.Rows); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_spmm_hyb")
	j := getJob()
	j.run = runSpMMHybrid
	j.ctx = ctx
	j.attr = attrSpMMHybrid
	j.hyb, j.x, j.y, j.dst = h, x, y, dst
	err := j.dispatch(h.ELL.Rows, h.CumWork)
	if err == nil {
		attrSpMMHybrid.recordPass(j, int(h.CumWork(h.ELL.Rows)), h.ELL.Rows, x.Cols)
	}
	putJob(j)
	sp.End()
	kernelSpMMHybrid.ObserveSince(start)
	return err
}

func runSpMMHybrid(j *job, lo, hi int) {
	h, xd := j.hyb, j.x.Data
	spill := h.Spill
	sp := searchSpillRow(spill, int32(lo))
	for i := lo; i < hi; i++ {
		se := sp
		for se < len(spill) && int(spill[se].Row) == i {
			se++
		}
		hybRow(j.outRow(i), xd, h.ELL, i, spill[sp:se])
		sp = se
	}
}

// hybRow computes output row i of H·X from its slab slots, then its
// spill entries: spmmRow's K-strip blocking and sum order over HYB's
// storage, so a zero-spill HYB gives the same bits as the row-wise
// kernel on the source CSR.
func hybRow(yi, xd []float32, e *ellpack.Matrix, i int, spill []sparse.Entry) {
	k := len(yi)
	rows, end := e.Rows, 0 // the row's slots are i, i+rows, ... < end
	if n := int(e.RowLen[i]); n > 0 {
		end = i + (n-1)*rows + 1
	}
	cols, vals := e.Cols[:end], e.Vals[:end]
	off := 0
	for ; off+8 <= k; off += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		for q := i; q < end; q += rows {
			v := vals[q]
			o := int(cols[q])*k + off
			xr := xd[o : o+8 : o+8]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
			a4 += v * xr[4]
			a5 += v * xr[5]
			a6 += v * xr[6]
			a7 += v * xr[7]
		}
		for _, en := range spill {
			v := en.Val
			o := int(en.Col)*k + off
			xr := xd[o : o+8 : o+8]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
			a4 += v * xr[4]
			a5 += v * xr[5]
			a6 += v * xr[6]
			a7 += v * xr[7]
		}
		yo := yi[off : off+8 : off+8]
		yo[0], yo[1], yo[2], yo[3] = a0, a1, a2, a3
		yo[4], yo[5], yo[6], yo[7] = a4, a5, a6, a7
	}
	if off+4 <= k {
		var a0, a1, a2, a3 float32
		for q := i; q < end; q += rows {
			v := vals[q]
			o := int(cols[q])*k + off
			xr := xd[o : o+4 : o+4]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
		}
		for _, en := range spill {
			v := en.Val
			o := int(en.Col)*k + off
			xr := xd[o : o+4 : o+4]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
		}
		yo := yi[off : off+4 : off+4]
		yo[0], yo[1], yo[2], yo[3] = a0, a1, a2, a3
		off += 4
	}
	for ; off < k; off++ {
		var a float32
		for q := i; q < end; q += rows {
			a += vals[q] * xd[int(cols[q])*k+off]
		}
		for _, en := range spill {
			a += en.Val * xd[int(en.Col)*k+off]
		}
		yi[off] = a
	}
}

// searchSpillRow returns the index of the first spill entry with
// Row >= r (spill is row-major sorted by construction).
func searchSpillRow(spill []sparse.Entry, r int32) int {
	lo, hi := 0, len(spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if spill[mid].Row < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

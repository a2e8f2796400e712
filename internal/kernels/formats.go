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
// The kernel walks rows: for each row it passes spmmRun the row's slab
// slots (slot s of row i at Cols/Vals[s*Rows+i], a run of stride
// 4·Rows), then adds the row's spill entries (a run of stride
// sizeof(sparse.Entry)). The slab stays slot-major because that is the
// GPU's coalesced layout, which gpusim (ellpack.SimulateSpMMHybrid)
// still models; on the CPU the row walk keeps each output row's
// accumulators in registers. Spill is row-major sorted and chunk row
// ranges tile [0, rows), so each chunk finds its first spill entry once
// and no two chunks write the same output row.

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
		yi := j.outRow(i)
		spmmRun(yi, xd, slabRun(h.ELL, i), false)
		if se > sp {
			spmmRun(yi, xd, spillRun(spill[sp:se]), true)
		}
		sp = se
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

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
// The ELL slab pass walks the slab column-major (slot-major), mirroring
// the coalesced GPU access pattern: within a chunk the slab reads at
// slot s are contiguous (Cols/Vals[s*rows+lo : s*rows+hi]) while the
// chunk's output rows stay cache-resident. The HYB kernel runs the ELL
// slab first, then folds in the spill entries whose rows fall inside
// the chunk — Spill is row-major sorted and chunk row ranges tile
// [0, rows), so no two chunks write the same output row.

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

// runSpMMELL computes rows [lo, hi) of the ELL slab's product. ELL is
// served only inside HYB, whose kernel runs this slab pass first.
func runSpMMELL(j *job, lo, hi int) {
	e, x, y := j.ell, j.x, j.y
	for i := lo; i < hi; i++ {
		clear(y.Row(i))
	}
	rows := e.Rows
	for s := 0; s < e.Width; s++ {
		base := s * rows
		for i := lo; i < hi; i++ {
			if s >= int(e.RowLen[i]) {
				continue
			}
			v := e.Vals[base+i]
			xr := x.Row(int(e.Cols[base+i]))
			yi := y.Row(i)
			for k := range yi {
				yi[k] += v * xr[k]
			}
		}
	}
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
	if err := checkELLShapes(h.ELL, x); err != nil {
		return err
	}
	if err := checkELLOut(h.ELL, x, y); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_spmm_hyb")
	j := getJob()
	j.run = runSpMMHybrid
	j.ctx = ctx
	j.attr = attrSpMMHybrid
	j.ell, j.hyb, j.x, j.y = h.ELL, h, x, y
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
	runSpMMELL(j, lo, hi)
	h, x, y := j.hyb, j.x, j.y
	for i := searchSpillRow(h.Spill, int32(lo)); i < len(h.Spill); i++ {
		e := h.Spill[i]
		if int(e.Row) >= hi {
			break
		}
		xr := x.Row(int(e.Col))
		yr := y.Row(int(e.Row))
		for k := range yr {
			yr[k] += e.Val * xr[k]
		}
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

// Package kernels provides the native (CPU, goroutine-parallel) SpMM and
// SDDMM implementations. They are the correctness ground truth for the GPU
// simulator and the executable backend of the examples: the row-wise
// variants implement Alg 1 and Alg 2 of the paper; the ASpT variants
// execute the tiled representation (dense tiles, then the leftover
// sparse part) and must produce bit-identical structure and numerically
// equal values. The SpMM row loops are register-blocked along K (see
// spmmRow) but add each output element's products in the same nonzero
// order as Alg 1's plain loop, so blocking changes no result bit.
//
// Execution is load-balanced by nonzero count rather than row count (see
// executor.go), and every kernel has an allocation-free *Into variant
// that writes a caller-provided output — the building blocks of the
// zero-allocation serving path exposed by the repro package.
package kernels

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// parallelRows runs fn over [0, rows) split into contiguous equal-row
// chunks across GOMAXPROCS workers — the seed engine, kept as the
// baseline for the load-balance tests and benchmarks. New code should
// go through job.dispatch, which balances by nonzeros.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func checkSpMMShapes(s *sparse.CSR, x *dense.Matrix) error {
	if s.Cols != x.Rows {
		return fmt.Errorf("kernels: SpMM shape mismatch: S is %dx%d, X is %dx%d",
			s.Rows, s.Cols, x.Rows, x.Cols)
	}
	return nil
}

func checkSpMMOut(s *sparse.CSR, x, y *dense.Matrix) error {
	if y.Rows != s.Rows || y.Cols != x.Cols {
		return fmt.Errorf("kernels: SpMM output is %dx%d, want %dx%d",
			y.Rows, y.Cols, s.Rows, x.Cols)
	}
	return nil
}

// SpMMRowWise computes Y = S·X with the row-wise algorithm (Alg 1),
// parallelised over rows. It allocates and returns Y (S.Rows × X.Cols).
func SpMMRowWise(s *sparse.CSR, x *dense.Matrix) (*dense.Matrix, error) {
	if err := checkSpMMShapes(s, x); err != nil {
		return nil, err
	}
	y := dense.New(s.Rows, x.Cols)
	return y, SpMMRowWiseIntoCtx(context.Background(), y, s, x)
}

// SpMMRowWiseIntoCtx computes Y = S·X into the caller-provided y
// (S.Rows × X.Cols), overwriting its contents, with cooperative
// cancellation between chunks and panic isolation (a kernel panic
// returns as a *par.PanicError). On error the output contents are
// unspecified. At steady state the call performs no heap allocations.
func SpMMRowWiseIntoCtx(ctx context.Context, y *dense.Matrix, s *sparse.CSR, x *dense.Matrix) error {
	return SpMMRowWiseIntoRowsCtx(ctx, y, nil, s, x)
}

// SpMMRowWiseIntoRowsCtx is SpMMRowWiseIntoCtx writing row i of S·X to
// row dst[i] of y (see checkRowMap).
func SpMMRowWiseIntoRowsCtx(ctx context.Context, y *dense.Matrix, dst []int32, s *sparse.CSR, x *dense.Matrix) error {
	if err := checkSpMMShapes(s, x); err != nil {
		return err
	}
	if err := checkSpMMOut(s, x, y); err != nil {
		return err
	}
	if err := checkRowMap(dst, s.Rows); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_spmm_rowwise")
	j := getJob()
	j.run = runSpMMRowWise
	j.ctx = ctx
	j.attr = attrSpMMRowWise
	j.csr, j.x, j.y, j.dst = s, x, y, dst
	err := j.dispatch(s.Rows, func(i int) int64 { return int64(s.RowPtr[i]) })
	if err == nil {
		attrSpMMRowWise.recordPass(j, s.NNZ(), s.Rows, x.Cols)
	}
	putJob(j)
	sp.End()
	kernelSpMMRowWise.ObserveSince(start)
	return err
}

// checkRowMap validates the row map of an *IntoRowsCtx kernel: row i of
// the product goes to row dst[i] of the output, and a nil dst is the
// identity. dst must be a permutation of [0, rows) — a pipeline passes
// its plan's RowPerm so results land in the caller's row order. Only
// the length is checked on this hot path; an out-of-range entry fails
// the call as a recovered *par.PanicError, and a repeated one leaves a
// row unwritten.
func checkRowMap(dst []int32, rows int) error {
	if dst != nil && len(dst) != rows {
		return fmt.Errorf("kernels: row map has %d entries for %d rows", len(dst), rows)
	}
	return nil
}

func runSpMMRowWise(j *job, lo, hi int) {
	s, xd := j.csr, j.x.Data
	for i := lo; i < hi; i++ {
		spmmRow(j.outRow(i), xd, s.RowCols(i), s.RowVals(i), nil, nil)
	}
}

// SpMMRow computes one output row yi of S·X from the row's nonzeros
// (cols, vals) with the kernels' row loop (spmmRow), for callers that
// compute single rows outside a kernel pass, such as a live overlay. xd
// is X's row-major data with len(yi) columns.
func SpMMRow(yi, xd []float32, cols []int32, vals []float32) {
	spmmRow(yi, xd, cols, vals, nil, nil)
}

// spmmRow computes one output row of S·X, yi[k] = Σ v·X[c][k], over the
// row's nonzeros given as two (cols, vals) segments summed in order:
// the whole CSR row (second segment empty) for row-wise and merge, the
// dense-tile part then the leftover part for ASpT. xd is X's row-major
// data with len(yi) columns.
//
// The loop is register-blocked along K. For each strip of 8 (then 4,
// then 1) output columns it walks the row's nonzeros once into named
// local accumulators and stores the strip once. X rows are resliced to
// the strip width, so the inner body has no bounds checks. Every
// element starts at 0 and adds its products in nonzero order, so the
// result is bit-identical to Alg 1's unblocked yi[k] += v·X[c][k] loop
// (TestSpMMKernelsMatchOracle).
func spmmRow(yi, xd []float32, c0 []int32, v0 []float32, c1 []int32, v1 []float32) {
	k := len(yi)
	off := 0
	for ; off+8 <= k; off += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		cols, vals := c0, v0
		for seg := 0; seg < 2; seg, cols, vals = seg+1, c1, v1 {
			vals = vals[:len(cols)]
			for jj, c := range cols {
				v := vals[jj]
				o := int(c)*k + off
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
		}
		yo := yi[off : off+8 : off+8]
		yo[0], yo[1], yo[2], yo[3] = a0, a1, a2, a3
		yo[4], yo[5], yo[6], yo[7] = a4, a5, a6, a7
	}
	if off+4 <= k {
		var a0, a1, a2, a3 float32
		cols, vals := c0, v0
		for seg := 0; seg < 2; seg, cols, vals = seg+1, c1, v1 {
			vals = vals[:len(cols)]
			for jj, c := range cols {
				v := vals[jj]
				o := int(c)*k + off
				xr := xd[o : o+4 : o+4]
				a0 += v * xr[0]
				a1 += v * xr[1]
				a2 += v * xr[2]
				a3 += v * xr[3]
			}
		}
		yo := yi[off : off+4 : off+4]
		yo[0], yo[1], yo[2], yo[3] = a0, a1, a2, a3
		off += 4
	}
	for ; off < k; off++ {
		var a float32
		cols, vals := c0, v0
		for seg := 0; seg < 2; seg, cols, vals = seg+1, c1, v1 {
			vals = vals[:len(cols)]
			for jj, c := range cols {
				a += vals[jj] * xd[int(c)*k+off]
			}
		}
		yi[off] = a
	}
}

// SpMMASpT computes Y = S·X from the ASpT representation: dense-tile
// nonzeros and leftover nonzeros are accumulated separately per row (the
// two GPU kernels of §2.3), then summed — both traversals write the same
// output row, so a single pass per row suffices on the CPU.
func SpMMASpT(t *aspt.Matrix, x *dense.Matrix) (*dense.Matrix, error) {
	if err := checkSpMMShapes(t.Src, x); err != nil {
		return nil, err
	}
	y := dense.New(t.Src.Rows, x.Cols)
	return y, SpMMASpTIntoCtx(context.Background(), y, t, x)
}

// SpMMASpTIntoCtx computes Y = S·X from the ASpT representation into
// the caller-provided y, overwriting its contents, with cooperative
// cancellation between chunks and panic isolation. Work is balanced by
// each row's combined tile+rest nonzero count. On error the output
// contents are unspecified. At steady state the call performs no heap
// allocations.
func SpMMASpTIntoCtx(ctx context.Context, y *dense.Matrix, t *aspt.Matrix, x *dense.Matrix) error {
	return SpMMASpTIntoRowsCtx(ctx, y, nil, t, x)
}

// SpMMASpTIntoRowsCtx is SpMMASpTIntoCtx writing row i of the product
// to row dst[i] of y (see checkRowMap).
func SpMMASpTIntoRowsCtx(ctx context.Context, y *dense.Matrix, dst []int32, t *aspt.Matrix, x *dense.Matrix) error {
	if err := checkSpMMShapes(t.Src, x); err != nil {
		return err
	}
	if err := checkSpMMOut(t.Src, x, y); err != nil {
		return err
	}
	if err := checkRowMap(dst, t.Src.Rows); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_spmm_aspt")
	j := getJob()
	j.run = runSpMMASpT
	j.ctx = ctx
	j.attr = attrSpMMASpT
	j.tile, j.x, j.y, j.dst = t, x, y, dst
	err := j.dispatch(t.Src.Rows, t.CumWork)
	if err == nil {
		attrSpMMASpT.recordPass(j, t.Src.NNZ(), t.Src.Rows, x.Cols)
	}
	putJob(j)
	sp.End()
	kernelSpMMASpT.ObserveSince(start)
	return err
}

// runSpMMASpT sums each row's dense-tile part, then its leftover sparse
// part, in one blocked row pass.
func runSpMMASpT(j *job, lo, hi int) {
	t, xd := j.tile, j.x.Data
	for i := lo; i < hi; i++ {
		spmmRow(j.outRow(i), xd, t.TileRowCols(i), t.TileRowVals(i), t.Rest.RowCols(i), t.Rest.RowVals(i))
	}
}

func checkSDDMMShapes(s *sparse.CSR, x, y *dense.Matrix) error {
	if x.Cols != y.Cols {
		return fmt.Errorf("kernels: SDDMM K mismatch: X has %d cols, Y has %d", x.Cols, y.Cols)
	}
	if y.Rows != s.Rows {
		return fmt.Errorf("kernels: SDDMM shape mismatch: Y has %d rows, S has %d", y.Rows, s.Rows)
	}
	if x.Rows != s.Cols {
		return fmt.Errorf("kernels: SDDMM shape mismatch: X has %d rows, S has %d cols", x.Rows, s.Cols)
	}
	return nil
}

// checkSDDMMOut verifies the output matrix mirrors s's structure. The
// full pattern comparison is O(nnz) with no allocations — negligible
// next to the O(nnz·K) kernel.
func checkSDDMMOut(s, out *sparse.CSR) error {
	if out == s {
		return nil // writing values in place over the source is allowed
	}
	if !out.SameStructure(s) {
		return fmt.Errorf("kernels: SDDMM output structure differs from S (%s vs %s)", out, s)
	}
	return nil
}

// SDDMMRowWise computes O = S ⊙ (Y·Xᵀ) with the row-wise algorithm
// (Alg 2): O has the sparsity pattern of S, and O[i][c] =
// S[i][c] · Σ_k Y[i][k]·X[c][k]. The result reuses S's structure with
// fresh values.
func SDDMMRowWise(s *sparse.CSR, x, y *dense.Matrix) (*sparse.CSR, error) {
	if err := checkSDDMMShapes(s, x, y); err != nil {
		return nil, err
	}
	out := s.Clone()
	return out, SDDMMRowWiseIntoCtx(context.Background(), out, s, x, y)
}

// SDDMMRowWiseIntoCtx computes O = S ⊙ (Y·Xᵀ) into the caller-provided
// out, which must have S's sparsity structure (e.g. S.Clone(), a
// previous result, or S itself for in-place value rewriting), with
// cooperative cancellation between chunks and panic isolation. Only
// out.Val is written. On error the output values are unspecified. At
// steady state the call performs no heap allocations.
func SDDMMRowWiseIntoCtx(ctx context.Context, out, s *sparse.CSR, x, y *dense.Matrix) error {
	if err := checkSDDMMShapes(s, x, y); err != nil {
		return err
	}
	if err := checkSDDMMOut(s, out); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_sddmm_rowwise")
	j := getJob()
	j.run = runSDDMMRowWise
	j.ctx = ctx
	j.attr = attrSDDMMRowWise
	j.csr, j.x, j.y, j.out = s, x, y, out.Val
	err := j.dispatch(s.Rows, func(i int) int64 { return int64(s.RowPtr[i]) })
	if err == nil {
		attrSDDMMRowWise.recordPass(j, s.NNZ(), s.Rows, x.Cols)
	}
	putJob(j)
	sp.End()
	kernelSDDMMRowWise.ObserveSince(start)
	return err
}

// runSDDMMRowWise computes O[i][c] = S[i][c] · (Y[i]·X[c]) for rows
// [lo, hi). The dot runs over X and Y rows resliced to K, so it has no
// bounds checks, and keeps one accumulator so its sum order is fixed.
func runSDDMMRowWise(j *job, lo, hi int) {
	s, x, y := j.csr, j.x, j.y
	for i := lo; i < hi; i++ {
		yi := y.Row(i)
		cols := s.RowCols(i)
		svals := s.RowVals(i)[:len(cols)]
		ovals := j.out[s.RowPtr[i]:s.RowPtr[i+1]]
		ovals = ovals[:len(cols)]
		for jj, c := range cols {
			xr := x.Row(int(c))[:len(yi)]
			dot := float32(0)
			for k, yv := range yi {
				dot += yv * xr[k]
			}
			ovals[jj] = dot * svals[jj]
		}
	}
}

// SDDMMASpT computes SDDMM from the ASpT representation. The output keeps
// the *source* matrix's CSR structure (ASpT preserves CSR compatibility,
// one of its selling points), so each nonzero's value lands at its
// source position.
func SDDMMASpT(t *aspt.Matrix, x, y *dense.Matrix) (*sparse.CSR, error) {
	if err := checkSDDMMShapes(t.Src, x, y); err != nil {
		return nil, err
	}
	out := t.Src.Clone()
	return out, SDDMMASpTIntoCtx(context.Background(), out, t, x, y)
}

// SDDMMASpTIntoCtx computes SDDMM from the ASpT representation into
// the caller-provided out, which must have the source matrix's
// structure, with cooperative cancellation between chunks and panic
// isolation. Only out.Val is written. On error the output values are
// unspecified. At steady state the call performs no heap allocations.
//
// The tile/rest partition changes where each nonzero's X row is read
// from on the GPU (shared memory vs global), not the arithmetic: every
// nonzero is its own dot scaled by its own value. So the kernel runs
// the row-wise loop over t.Src, balanced by each row's tile+rest work;
// the partition-aware traffic accounting lives in gpusim.
func SDDMMASpTIntoCtx(ctx context.Context, out *sparse.CSR, t *aspt.Matrix, x, y *dense.Matrix) error {
	if err := checkSDDMMShapes(t.Src, x, y); err != nil {
		return err
	}
	if err := checkSDDMMOut(t.Src, out); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_sddmm_aspt")
	j := getJob()
	j.run = runSDDMMRowWise
	j.ctx = ctx
	j.attr = attrSDDMMASpT
	j.csr, j.x, j.y, j.out = t.Src, x, y, out.Val
	err := j.dispatch(t.Src.Rows, t.CumWork)
	if err == nil {
		attrSDDMMASpT.recordPass(j, t.Src.NNZ(), t.Src.Rows, x.Cols)
	}
	putJob(j)
	sp.End()
	kernelSDDMMASpT.ObserveSince(start)
	return err
}

// Flops returns the floating-point operation count of an SpMM or SDDMM on
// a matrix with nnz nonzeros and K dense columns: 2·nnz·K (one multiply
// and one add per nonzero per column), the normalisation used for the
// paper's GFLOP/s plots.
func Flops(nnz, k int) float64 { return 2 * float64(nnz) * float64(k) }

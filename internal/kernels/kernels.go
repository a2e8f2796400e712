// Package kernels provides the native (CPU, goroutine-parallel) SpMM and
// SDDMM implementations. They are the correctness ground truth for the GPU
// simulator and the executable backend of the examples: the row-wise
// variants implement Alg 1 and Alg 2 of the paper; the ASpT variants
// execute the tiled representation (dense tiles, then the leftover
// sparse part) and must produce bit-identical structure and numerically
// equal values.
//
// Every SpMM kernel computes its rows through spmmRows, which hands a
// range of rows to one strip primitive, addRows, for all K output
// columns: strips of 16, 8 and 4 columns, then one scalar walk with an
// accumulator per column for the last K%4, the only walk below K = 4
// (at K = 1 the assembly walks two rows at a time).
// Row i of the range is a span of a strided run of (col, val)
// pairs given by a row pointer, written to output row dst[i]. Row-wise
// makes one call per executor chunk, merge one for a chunk's owned
// whole rows and ASpT two (tile, then rest). HYB's slab and spill,
// merge's head fragments and cut rows, and SpMMRow use the one-row
// form, spmmRun. On amd64 addRows is assembly with two paths behind one
// entry point: AVX2 (16-wide strips of two YMM lanes, then one 8-wide
// strip, then the SSE 4-wide and scalar loops) when CPUID and XGETBV
// show AVX2 at start-up, and SSE (16-, then 4-wide strips, then the
// scalar walk), the amd64 baseline, otherwise. StripPath names the path. Elsewhere, and under the
// standard purego build tag, addRows is plain Go. Every SDDMM row goes
// through sddmmRow, one dot per nonzero in k order.
//
// One rounding contract holds on every GOARCH: each accumulator starts
// at +0 and adds its products in a fixed order with a separate multiply
// and add, never an FMA. The assembly uses (V)MULPS then (V)ADDPS; the
// Go loops write a += float32(v*x), and the Go spec forbids fusing
// across an explicit conversion, so arm64 (which would otherwise emit
// FMADD) rounds exactly as amd64 does. Blocking, vectorizing and the
// choice of strip path therefore change no result bit on any target.
// The primitive checks every index it follows, each as an unsigned
// compare: every column against X's row count, every output row dst[i]
// against Y's, and each row's pair span against its run. A bad index
// fails the call as a recovered *par.PanicError instead of reading or
// writing outside the operands.
//
// The *IntoRowsCtx kernels take a row map: row i of the (reordered)
// sparse operand is row dst[i] of the caller's output (and, for SDDMM,
// reads Y row dst[i]). A pipeline passes its plan's RowPerm, so row
// reordering stays an execution order and no operand or result is
// permuted.
//
// Execution is load-balanced by nonzero count rather than row count (see
// executor.go), and every kernel has an allocation-free *Into variant
// that writes a caller-provided output — the building blocks of the
// zero-allocation serving path exposed by the repro package.
package kernels

import (
	"context"
	"errors"
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

// runSpMMRowWise computes rows [lo, hi) of S·X in one strip call.
func runSpMMRowWise(j *job, lo, hi int) {
	s := j.csr
	spmmRows(j.y.Data, j.x.Data, j.x.Cols, j.dst, s.RowPtr, lo, hi, sliceRun(s.ColIdx, s.Val), false)
}

// SpMMRow computes one output row yi of S·X from the row's nonzeros
// (cols, vals) with the kernels' row loop (spmmRun), for callers that
// compute single rows outside a kernel pass, such as a live overlay. xd
// is X's row-major data with len(yi) columns.
func SpMMRow(yi, xd []float32, cols []int32, vals []float32) {
	spmmRun(yi, xd, sliceRun(cols, vals), false)
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

// runSpMMASpT sums the rows' dense-tile parts, then adds their leftover
// sparse parts, in two strip calls over the chunk.
func runSpMMASpT(j *job, lo, hi int) {
	t, y, x := j.tile, j.y.Data, j.x
	spmmRows(y, x.Data, x.Cols, j.dst, t.TileRowPtr, lo, hi, sliceRun(t.TileCol, t.TileVal), false)
	spmmRows(y, x.Data, x.Cols, j.dst, t.Rest.RowPtr, lo, hi, sliceRun(t.Rest.ColIdx, t.Rest.Val), true)
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

// checkSDDMMOut verifies that out can take the values of s's product:
// the same shape and nonzero count, and no in-place write over S under
// a row map. It is O(1) — the kernel checks each row segment's length
// as it visits the row — so it does not compare column patterns: that
// O(nnz) check is made once, where the output enters (SDDMMRowWiseIntoCtx
// here, a pipeline's entry point at the root).
func checkSDDMMOut(s, out *sparse.CSR, dst []int32) error {
	if dst != nil && out == s {
		return errors.New("kernels: SDDMM with a row map cannot write in place over S")
	}
	if out.Rows != s.Rows || out.Cols != s.Cols || out.NNZ() != s.NNZ() {
		return fmt.Errorf("kernels: SDDMM output shape differs from S (%s vs %s)", out, s)
	}
	return nil
}

// errRowLength is the panic value of an SDDMM row whose output segment
// does not have the length of the S row mapped to it.
var errRowLength = errors.New("kernels: SDDMM output row length differs from S")

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
	if out != s && !out.SameStructure(s) {
		return fmt.Errorf("kernels: SDDMM output structure differs from S (%s vs %s)", out, s)
	}
	return SDDMMRowWiseIntoRowsCtx(ctx, out, nil, s, x, y)
}

// SDDMMRowWiseIntoRowsCtx is SDDMMRowWiseIntoCtx with a row map (see
// checkRowMap): row i of s stands for row dst[i] of the output, so it
// reads Y row dst[i] and writes out's row dst[i]. s is read in order
// and the work is balanced by s.RowPtr. out is in the caller's row
// order; a row segment whose length differs from its s row fails the
// call as a *par.PanicError, and nothing is written outside out.Val.
// Unlike SDDMMRowWiseIntoCtx it does not compare out's column pattern
// with s's: the caller checks that once, where the output enters. A
// pipeline passes its reordered matrix and the plan's RowPerm, so the
// reordering stays an execution order: no operand or result is
// permuted.
func SDDMMRowWiseIntoRowsCtx(ctx context.Context, out *sparse.CSR, dst []int32, s *sparse.CSR, x, y *dense.Matrix) error {
	if err := checkSDDMMShapes(s, x, y); err != nil {
		return err
	}
	if err := checkRowMap(dst, s.Rows); err != nil {
		return err
	}
	if err := checkSDDMMOut(s, out, dst); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_sddmm_rowwise")
	j := getJob()
	j.run = runSDDMMRowWise
	j.ctx = ctx
	j.attr = attrSDDMMRowWise
	j.csr, j.x, j.y, j.dst, j.out = s, x, y, dst, out
	err := j.dispatch(s.Rows, func(i int) int64 { return int64(s.RowPtr[i]) })
	if err == nil {
		attrSDDMMRowWise.recordPass(j, s.NNZ(), s.Rows, x.Cols)
	}
	putJob(j)
	sp.End()
	kernelSDDMMRowWise.ObserveSince(start)
	return err
}

// runSDDMMRowWise computes rows [lo, hi) of s into their mapped output
// rows.
func runSDDMMRowWise(j *job, lo, hi int) {
	s, o, xd := j.csr, j.out, j.x.Data
	ov := o.Val[:len(o.Val):len(o.Val)] // no row segment reaches past out.Val
	for i := lo; i < hi; i++ {
		r := i
		if j.dst != nil {
			r = int(j.dst[i])
		}
		cols := s.RowCols(i)
		ovals := ov[o.RowPtr[r]:o.RowPtr[r+1]]
		if len(ovals) != len(cols) {
			panic(errRowLength)
		}
		sddmmRow(ovals, j.y.Row(r), xd, cols, s.RowVals(i))
	}
}

// sddmmRow computes one row of O = S ⊙ (Y·Xᵀ) from the row's nonzeros
// (cols, vals): ovals[j] = vals[j] · Σ_k yi[k]·X[cols[j]][k]. xd is X's
// row-major data with len(yi) columns. Each dot keeps one accumulator,
// starts at +0 and adds its rounded products in k order, so its sum
// order is fixed; the X row is resliced to K, so the dot has no bounds
// checks. A column outside X's rows panics with an index error. It is
// the SDDMM kernel's row loop.
func sddmmRow(ovals, yi, xd []float32, cols []int32, vals []float32) {
	k := len(yi)
	vals, ovals = vals[:len(cols)], ovals[:len(cols)]
	for j, c := range cols {
		xr := xd[int(c)*k:][:k]
		var dot float32
		for kk, yv := range yi {
			dot += float32(yv * xr[kk])
		}
		ovals[j] = dot * vals[j]
	}
}

// SDDMMASpTIntoCtx computes SDDMM from the ASpT representation into
// the caller-provided out, which must have the source matrix's
// structure. The tile/rest partition changes where each nonzero's X
// row is read from on the GPU (shared memory vs global), not the
// arithmetic: every nonzero is its own dot scaled by its own value, and
// t's tile+rest work per row is t.Src's row length. So this is the
// row-wise kernel over t.Src; the partition-aware traffic accounting
// lives in gpusim.
func SDDMMASpTIntoCtx(ctx context.Context, out *sparse.CSR, t *aspt.Matrix, x, y *dense.Matrix) error {
	return SDDMMRowWiseIntoRowsCtx(ctx, out, nil, t.Src, x, y)
}

// Flops returns the floating-point operation count of an SpMM or SDDMM on
// a matrix with nnz nonzeros and K dense columns: 2·nnz·K (one multiply
// and one add per nonzero per column), the normalisation used for the
// paper's GFLOP/s plots.
func Flops(nnz, k int) float64 { return 2 * float64(nnz) * float64(k) }

package kernels

// Multi-operand batched SpMM: the serving-layer entry point behind
// request coalescing. N independent (Y_i, X_i) operand pairs against
// the same sparse matrix are column-stacked into one wide pair and
// computed by a single kernel pass, so the sparse operand's index
// structure is traversed once for the combined width instead of once
// per request — arithmetic intensity (and therefore throughput on a
// bandwidth-bound kernel) rises with the effective K, exactly the
// K-scaling behaviour of Yang–Buluç–Owens (PAPERS.md).
//
// The pass itself is abstracted as an SpMMPass so the same batching
// works over a raw kernel, a preprocessed Pipeline (whose autotuned
// kernel dispatch then runs once for the whole batch), or a sharded
// pipeline. Stacked scratch comes from the dense pool and the operand
// slices from a local pool, so a steady-state batched call performs no
// heap allocations.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// BatchOp is one coalesced request: compute Y = S·X for this operand
// pair as part of a single batched pass.
type BatchOp struct {
	// Y receives the result (S.Rows × X.Cols), fully overwritten.
	Y *dense.Matrix
	// X is the dense right-hand operand.
	X *dense.Matrix
}

// SpMMPass executes one SpMM into a caller-provided output. Every
// repro pipeline type implements it, as does any
// raw kernel wrapped in a small adapter (see SpMMRowWisePass).
type SpMMPass interface {
	SpMMIntoCtx(ctx context.Context, y *dense.Matrix, x *dense.Matrix) error
}

// batchState pools the per-batch operand slice headers so assembling a
// batch stays allocation-free at steady state.
type batchState struct {
	xs []*dense.Matrix
	ys []*dense.Matrix
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// SpMMBatchIntoCtx computes every op's Y = S·X through pass in a
// single kernel execution: the X operands are column-stacked into one
// pooled scratch dense, pass runs once at the combined width, and each
// op's columns are scattered back into its own Y. A single-op batch
// bypasses the stack/unstack copies entirely.
//
// All operands must agree on row counts (every X the same number of
// rows, every Y the same number of rows) and each op must have
// Y.Cols == X.Cols; pass itself enforces its matrix's shape contract.
// On error the outputs' contents are unspecified. Steady-state calls
// perform no heap allocations.
func SpMMBatchIntoCtx(ctx context.Context, pass SpMMPass, ops []BatchOp) error {
	switch len(ops) {
	case 0:
		return nil
	case 1:
		if err := checkBatchOp(ops[0], 0); err != nil {
			return err
		}
		return pass.SpMMIntoCtx(ctx, ops[0].Y, ops[0].X)
	}
	ksum := 0
	for i, op := range ops {
		if err := checkBatchOp(op, i); err != nil {
			return err
		}
		if op.X.Rows != ops[0].X.Rows {
			return fmt.Errorf("kernels: batch op %d has %d X rows, want %d", i, op.X.Rows, ops[0].X.Rows)
		}
		if op.Y.Rows != ops[0].Y.Rows {
			return fmt.Errorf("kernels: batch op %d has %d Y rows, want %d", i, op.Y.Rows, ops[0].Y.Rows)
		}
		ksum += op.X.Cols
	}
	start := time.Now()
	st := batchPool.Get().(*batchState)
	st.xs, st.ys = st.xs[:0], st.ys[:0]
	for _, op := range ops {
		st.xs = append(st.xs, op.X)
		st.ys = append(st.ys, op.Y)
	}
	xst := dense.Get(ops[0].X.Rows, ksum)
	yst := dense.Get(ops[0].Y.Rows, ksum)
	err := dense.StackColsInto(xst, st.xs)
	if err == nil {
		err = pass.SpMMIntoCtx(ctx, yst, xst)
	}
	if err == nil {
		err = dense.UnstackColsInto(st.ys, yst)
	}
	dense.Put(yst)
	dense.Put(xst)
	clear(st.xs)
	clear(st.ys)
	batchPool.Put(st)
	if err == nil {
		kernelSpMMBatch.ObserveSince(start)
		kernelSpMMBatchOps.Observe(float64(len(ops)))
	}
	return err
}

func checkBatchOp(op BatchOp, i int) error {
	if op.X == nil || op.Y == nil {
		return fmt.Errorf("kernels: batch op %d has a nil operand", i)
	}
	if op.Y.Cols != op.X.Cols {
		return fmt.Errorf("kernels: batch op %d output has %d cols, want %d", i, op.Y.Cols, op.X.Cols)
	}
	return nil
}

// spmmRowWisePass adapts the raw row-wise kernel to SpMMPass for
// batching without a pipeline (the no-preprocessing baseline).
type spmmRowWisePass struct{ s *sparse.CSR }

func (p spmmRowWisePass) SpMMIntoCtx(ctx context.Context, y, x *dense.Matrix) error {
	return SpMMRowWiseIntoCtx(ctx, y, p.s, x)
}

// SpMMRowWisePass returns an SpMMPass executing the plain row-wise
// kernel on s — the batching adapter for unpreprocessed serving.
func SpMMRowWisePass(s *sparse.CSR) SpMMPass { return spmmRowWisePass{s: s} }

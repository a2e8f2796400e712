package repro_test

import (
	"context"
	"math"
	"testing"

	"repro"
	"repro/internal/kernels"
)

// TestPipelineSpMMBatchMatchesInto checks the batched entry point on a
// decided (reordered) pipeline against per-operand SpMMIntoCtx calls.
// Stacking only rearranges which columns a pass computes — the
// per-column arithmetic and the row permutation are unchanged — so the
// comparison is bit-exact, operand by operand, across mixed widths.
func TestPipelineSpMMBatchMatchesInto(t *testing.T) {
	m := scrambled(t)
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ops := make([]repro.BatchOp, 5)
	wants := make([]*repro.Dense, len(ops))
	for i := range ops {
		k := 1 + i%3
		x := repro.NewRandomDense(m.Cols, k, int64(100+i))
		ops[i] = repro.BatchOp{Y: repro.NewDense(m.Rows, k), X: x}
		w := repro.NewDense(m.Rows, k)
		if err := p.SpMMIntoCtx(ctx, w, x); err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	if err := kernels.SpMMBatchIntoCtx(ctx, p, ops); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		for j := range wants[i].Data {
			if ops[i].Y.Data[j] != wants[i].Data[j] {
				t.Fatalf("op %d diverges from its independent pass at %d", i, j)
			}
		}
	}
}

// TestOnlinePipelineSpMMBatch runs a batch through an undecided online
// pipeline: the single pass at the combined width must run the §4 trial
// like any other first call, decide, and still scatter each operand's
// columns back correctly.
func TestOnlinePipelineSpMMBatch(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 2)
	x1 := repro.NewRandomDense(m.Cols, 2, 1)
	x2 := repro.NewRandomDense(m.Cols, 3, 2)
	want1, err := repro.SpMM(m, x1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := repro.SpMM(m, x2)
	if err != nil {
		t.Fatal(err)
	}
	ops := []repro.BatchOp{
		{Y: repro.NewDense(m.Rows, 2), X: x1},
		{Y: repro.NewDense(m.Rows, 3), X: x2},
	}
	if err := kernels.SpMMBatchIntoCtx(context.Background(), o, ops); err != nil {
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("batched first call did not run the trial")
	}
	for i, want := range []*repro.Dense{want1, want2} {
		got := ops[i].Y
		for j := range want.Data {
			if d := math.Abs(float64(want.Data[j] - got.Data[j])); d > 1e-4 {
				t.Fatalf("op %d diverges from baseline at %d by %v", i, j, d)
			}
		}
	}
}

// TestPipelineSpMMPooledOutput pins the pooled-output contract of
// Pipeline.SpMM: the returned matrix may be recycled scratch
// with arbitrary prior contents, so the pipeline must fully overwrite
// it. Seed the pool with a poisoned matrix of exactly the result shape
// and check the values still match the *Into path.
func TestPipelineSpMMPooledOutput(t *testing.T) {
	m := scrambled(t)
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 8, 3)
	want := repro.NewDense(m.Rows, 8)
	if err := p.SpMMInto(want, x); err != nil {
		t.Fatal(err)
	}
	poison := repro.GetDense(m.Rows, 8)
	for i := range poison.Data {
		poison.Data[i] = float32(math.NaN())
	}
	repro.PutDense(poison)
	y, err := p.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	defer repro.PutDense(y)
	if y.Rows != m.Rows || y.Cols != 8 {
		t.Fatalf("pooled output has shape %dx%d, want %dx%d", y.Rows, y.Cols, m.Rows, 8)
	}
	for i := range want.Data {
		if y.Data[i] != want.Data[i] {
			t.Fatalf("pooled SpMM output diverges at %d (stale scratch leaked through?)", i)
		}
	}
}

// The Server's coalesced pass over a live tenant asks the reorder gate
// about the widest operand, and that plumbing keeps the batched path
// allocation-free at steady state.
func TestLiveBatchPassAllocFree(t *testing.T) {
	m := scrambled(t)
	l, err := repro.NewLivePipelineCtx(context.Background(), m, repro.DefaultConfig(), repro.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer l.Quiesce(ctx)
	ops := []repro.BatchOp{
		{Y: repro.NewDense(m.Rows, 4), X: repro.NewRandomDense(m.Cols, 4, 1)},
		{Y: repro.NewDense(m.Rows, 1), X: repro.NewRandomDense(m.Cols, 1, 2)},
	}
	call := func() {
		if err := kernels.SpMMBatchIntoCtx(ctx, repro.LiveBatchPass(l, ops), ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		call()
	}
	// A GC can empty the pools mid-measurement, and under -race the
	// detector drops pool puts at random, so a reading over the limit
	// is retried; a real per-call allocation fails every attempt.
	limit, attempts := 0.0, 3
	if raceDetectorEnabled {
		limit, attempts = 2, 10
	}
	var allocs float64
	for a := 0; a < attempts; a++ {
		if allocs = testing.AllocsPerRun(20, call); allocs <= limit {
			return
		}
	}
	t.Fatalf("batched live pass allocates %v objects per call, want <= %v", allocs, limit)
}

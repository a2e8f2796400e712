package kernels

import (
	"context"
	"testing"

	"repro/internal/dense"
	"repro/internal/synth"
)

// TestSpMMBatchMatchesIndependent checks that one batched pass over N
// operands is numerically identical to N independent passes: stacking
// only rearranges which columns a pass computes, never the arithmetic
// per column, so the comparison is bit-exact.
func TestSpMMBatchMatchesIndependent(t *testing.T) {
	m, err := synth.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	if err != nil {
		t.Fatal(err)
	}
	pass := SpMMRowWisePass(m)
	for _, n := range []int{1, 2, 3, 7} {
		ops := make([]BatchOp, n)
		wants := make([]*dense.Matrix, n)
		for i := range ops {
			x := dense.NewRandom(m.Cols, 1+i%3, int64(10*n+i))
			ops[i] = BatchOp{Y: dense.New(m.Rows, x.Cols), X: x}
			w := dense.New(m.Rows, x.Cols)
			if err := SpMMRowWiseIntoCtx(context.Background(), w, m, x); err != nil {
				t.Fatal(err)
			}
			wants[i] = w
		}
		if err := SpMMBatchIntoCtx(context.Background(), pass, ops); err != nil {
			t.Fatalf("batch of %d: %v", n, err)
		}
		for i := range ops {
			for j := range wants[i].Data {
				if ops[i].Y.Data[j] != wants[i].Data[j] {
					t.Fatalf("batch of %d: op %d differs from the independent pass at %d", n, i, j)
				}
			}
		}
	}
}

func TestSpMMBatchShapeErrors(t *testing.T) {
	m, err := synth.Uniform(64, 64, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	pass := SpMMRowWisePass(m)
	ok := BatchOp{Y: dense.New(64, 2), X: dense.NewRandom(64, 2, 1)}
	cases := map[string][]BatchOp{
		"nil-x":        {ok, {Y: dense.New(64, 2)}},
		"nil-y":        {ok, {X: dense.NewRandom(64, 2, 1)}},
		"yk-mismatch":  {ok, {Y: dense.New(64, 3), X: dense.NewRandom(64, 2, 1)}},
		"xrows-differ": {ok, {Y: dense.New(64, 2), X: dense.NewRandom(32, 2, 1)}},
		"yrows-differ": {ok, {Y: dense.New(32, 2), X: dense.NewRandom(64, 2, 1)}},
		"single-bad":   {{Y: dense.New(64, 1), X: dense.NewRandom(64, 2, 1)}},
	}
	for name, ops := range cases {
		if err := SpMMBatchIntoCtx(context.Background(), pass, ops); err == nil {
			t.Errorf("%s: batched pass accepted a bad shape", name)
		}
	}
	if err := SpMMBatchIntoCtx(context.Background(), pass, nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}

// TestSpMMBatchCancellation checks that a cancelled context surfaces
// from the underlying pass and leaves no wedged state behind.
func TestSpMMBatchCancellation(t *testing.T) {
	m, err := synth.Uniform(256, 256, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := []BatchOp{
		{Y: dense.New(256, 2), X: dense.NewRandom(256, 2, 1)},
		{Y: dense.New(256, 2), X: dense.NewRandom(256, 2, 2)},
	}
	if err := SpMMBatchIntoCtx(ctx, SpMMRowWisePass(m), ops); err != context.Canceled {
		t.Fatalf("cancelled batch = %v, want context.Canceled", err)
	}
}

// TestSpMMBatchAllocFree pins the batched hot path to zero allocations
// after warmup — the batched serving contract: pooled stacked scratch,
// pooled operand slices, pooled kernel job state.
func TestSpMMBatchAllocFree(t *testing.T) {
	m, err := synth.Uniform(512, 512, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	pass := SpMMRowWisePass(m)
	ops := make([]BatchOp, 4)
	for i := range ops {
		ops[i] = BatchOp{Y: dense.New(m.Rows, 2), X: dense.NewRandom(m.Cols, 2, int64(i))}
	}
	ctx := context.Background()
	call := func() {
		if err := SpMMBatchIntoCtx(ctx, pass, ops); err != nil {
			t.Fatal(err)
		}
	}
	assertZeroAllocsAfterWarmup(t, "SpMMBatchIntoCtx", call)
}

// raceAllocSlack is the per-call allocation allowance of pooled paths
// under -race, the same allowance the root package's serving pins use.
const raceAllocSlack = 2

// assertZeroAllocsAfterWarmup warms pooled state with a few calls, then
// requires a steady-state call to allocate nothing. A GC can empty the
// sync.Pools mid-measurement, so a nonzero reading is retried a couple
// of times before failing; a genuine per-call allocation fails every
// attempt. Under -race, where the detector drops sync.Pool puts at
// random, a call may allocate up to raceAllocSlack objects and gets
// more attempts; normal builds keep the exact zero pin.
func assertZeroAllocsAfterWarmup(t *testing.T, name string, call func()) {
	t.Helper()
	for i := 0; i < 3; i++ {
		call()
	}
	limit, attempts := 0.0, 3
	if raceDetectorEnabled {
		limit, attempts = raceAllocSlack, 10
	}
	var allocs float64
	for attempt := 0; attempt < attempts; attempt++ {
		allocs = testing.AllocsPerRun(20, call)
		if allocs <= limit {
			return
		}
	}
	t.Fatalf("%s allocates %v objects per call at steady state, want <= %v", name, allocs, limit)
}

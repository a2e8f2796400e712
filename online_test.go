package repro_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/obs"
)

var errDiverged = errors.New("concurrent result diverged from reference")

func TestOnlinePipelineDecides(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	if done, _ := o.Decided(); done {
		t.Fatalf("decided before first call")
	}
	if p := o.Pipeline(); p == nil || p.Plan().NeedsReordering() {
		t.Fatalf("before the decision Pipeline is not the no-reorder plan wide calls run")
	}
	x := repro.NewRandomDense(m.Cols, 16, 1)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	y1, err := spmmOf(context.Background(), o, x)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := o.Decided()
	if !done {
		t.Fatalf("first call did not decide")
	}
	rrT, nrT := o.TrialTimes()
	if rrT <= 0 || nrT <= 0 {
		t.Fatalf("trial times not recorded: %v %v", rrT, nrT)
	}
	if o.Pipeline() == nil {
		t.Fatalf("no winner exposed")
	}
	// Correctness in both the deciding and the decided calls.
	y2, err := spmmOf(context.Background(), o, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-y1.Data[i])) > 1e-4 ||
			math.Abs(float64(want.Data[i]-y2.Data[i])) > 1e-4 {
			t.Fatalf("online pipeline diverges at %d", i)
		}
	}
}

// TestOnlinePipelineConcurrentUndecided hammers a fresh (undecided)
// pipeline from many goroutines: exactly one runs the trial, the rest
// either wait it out or take the decided fast path, and every result
// must be correct. Run under -race (see `make race`).
// TestOnlinePipelineNoTrialWithoutReordering: on a matrix whose rows
// already come in runs sharing their columns, every nonzero sits in a
// dense tile and the §4 heuristics apply no round. Both plans are then
// the same, so the first call publishes the plain plan untimed — zero
// trial times, one kernel pass, the caller's correct result.
func TestOnlinePipelineNoTrialWithoutReordering(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	const n, run, width = 2048, 32, 16
	cols := make([][]int32, n)
	for i := range cols {
		for j := 0; j < width; j++ {
			cols[i] = append(cols[i], int32((i/run*width+j)%n))
		}
	}
	m, err := repro.FromRows(n, n, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Plan().NeedsReordering() {
		t.Fatal("uniform matrix applied a reordering round")
	}
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	x := repro.NewRandomDense(m.Cols, 16, 1)
	tr := obs.NewTrace("first")
	y, err := spmmOf(obs.WithTrace(context.Background(), tr), o, x)
	if err != nil {
		t.Fatal(err)
	}
	if done, won := o.Decided(); !done || won {
		t.Fatalf("Decided() = %v, %v; want the plain plan published", done, won)
	}
	if rrT, nrT := o.TrialTimes(); rrT != 0 || nrT != 0 {
		t.Fatalf("TrialTimes() = %v, %v; want no trial", rrT, nrT)
	}
	passes := 0
	for _, sp := range tr.Snapshot().Spans {
		if strings.HasPrefix(sp.Name, "kernel_") {
			passes++
		}
	}
	if passes != 1 {
		t.Fatalf("first call ran %d kernel passes; want 1", passes)
	}
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-y.Data[i])) > 1e-4 {
			t.Fatalf("result diverges at %d", i)
		}
	}
}

func TestOnlinePipelineConcurrentUndecided(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	x := repro.NewRandomDense(m.Cols, 16, 1)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([]*repro.Dense, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = spmmOf(context.Background(), o, x)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-results[g].Data[i])) > 1e-4 {
				t.Fatalf("goroutine %d diverges at %d", g, i)
			}
		}
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("concurrent first calls did not decide")
	}
}

// TestOnlinePipelineConcurrentDecided checks the lock-free fast path:
// once decided, ≥8 goroutines call SpMM (and SpMMInto) concurrently and
// repeatedly; all results must be correct and no state may race.
func TestOnlinePipelineConcurrentDecided(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	x := repro.NewRandomDense(m.Cols, 16, 1)
	if _, err := spmmOf(context.Background(), o, x); err != nil { // decide
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("not decided after first call")
	}
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const callsEach = 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := repro.NewDense(m.Rows, x.Cols)
			for c := 0; c < callsEach; c++ {
				var got *repro.Dense
				var err error
				if c%2 == 0 {
					got, err = spmmOf(context.Background(), o, x)
				} else {
					err = o.SpMMIntoCtx(context.Background(), y, x)
					got = y
				}
				if err != nil {
					errCh <- err
					return
				}
				for i := range want.Data {
					if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
						errCh <- errDiverged
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestOnlinePipelineIntoVariants checks the Into entry points on both
// the undecided (trial) and decided paths, including output validation.
func TestOnlinePipelineIntoVariants(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	x := repro.NewRandomDense(m.Cols, 8, 4)
	yin := repro.NewRandomDense(m.Rows, 8, 5)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	y := repro.NewDense(m.Rows, 8)
	if err := o.SpMMIntoCtx(context.Background(), y, x); err != nil { // undecided path decides
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("SpMMInto did not decide")
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-y.Data[i])) > 1e-4 {
			t.Fatalf("trial SpMMInto diverges at %d", i)
		}
	}
	if err := o.SpMMIntoCtx(context.Background(), y, x); err != nil { // decided path
		t.Fatal(err)
	}
	if err := o.SpMMIntoCtx(context.Background(), repro.NewDense(m.Rows+1, 8), x); err == nil {
		t.Fatalf("accepted wrong-shaped output")
	}
	wantO, err := repro.SDDMM(m, x, yin)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Clone()
	if err := o.SDDMMIntoCtx(context.Background(), out, x, yin); err != nil {
		t.Fatal(err)
	}
	for j := range wantO.Val {
		if math.Abs(float64(wantO.Val[j]-out.Val[j])) > 1e-4 {
			t.Fatalf("SDDMMInto diverges at %d", j)
		}
	}
	bad := repro.Matrix{Rows: 1, Cols: 1, RowPtr: []int32{0, 0}}
	if err := o.SDDMMIntoCtx(context.Background(), &bad, x, yin); err == nil {
		t.Fatalf("accepted structurally different SDDMM output")
	}
}

func TestOnlinePipelineSDDMM(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	x := repro.NewRandomDense(m.Cols, 8, 2)
	y := repro.NewRandomDense(m.Rows, 8, 3)
	want, err := repro.SDDMM(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sddmmOf(context.Background(), o, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameStructure(m) {
		t.Fatalf("structure changed")
	}
	for j := range want.Val {
		if math.Abs(float64(want.Val[j]-got.Val[j])) > 1e-4 {
			t.Fatalf("online SDDMM diverges at %d", j)
		}
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("SDDMM first call did not decide")
	}
	// Second call goes through the winner path.
	if _, err := sddmmOf(context.Background(), o, x, y); err != nil {
		t.Fatal(err)
	}
}

package repro_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/testutil"
)

// warmKernelPool primes the persistent kernel worker pool (and the
// dense scratch pool) so goroutine-leak baselines taken afterwards only
// count goroutines attributable to the code under test.
func warmKernelPool(t *testing.T, m *repro.Matrix) {
	t.Helper()
	x := repro.NewRandomDense(m.Cols, 4, 99)
	if _, err := repro.SpMM(m, x); err != nil {
		t.Fatal(err)
	}
}

func freshScrambled(t *testing.T, seed int64) *repro.Matrix {
	t.Helper()
	m, err := repro.GenerateScrambledClusters(1024, 1024, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A fault injected into any parallel stage — preprocessing or kernel
// execution — must surface through the public API as an error, never a
// crash, and must leave no goroutines behind.
func TestPublicAPIFaultAtEverySiteNeverCrashes(t *testing.T) {
	m := freshScrambled(t, 1001)
	warmKernelPool(t, m)
	cfg := repro.DefaultConfig()
	// Multiple workers regardless of GOMAXPROCS, so every parallel stage
	// (including the cross-worker pair merge) actually runs.
	cfg.Workers = 4
	for _, site := range []string{
		"lsh.signatures", "lsh.banding", "lsh.pairmerge", "lsh.scoring",
		"reorder.cluster", "aspt.build", "sparse.permute",
	} {
		t.Run(site, func(t *testing.T) {
			defer testutil.CheckNoGoroutineLeak(t)()
			defer faultinject.ErrorAt(site)()
			if _, err := repro.PreprocessCtx(context.Background(), m, cfg); !errors.Is(err, faultinject.Err) {
				t.Fatalf("PreprocessCtx with fault at %s = %v, want faultinject.Err", site, err)
			}
		})
	}
	t.Run("kernels.exec", func(t *testing.T) {
		defer testutil.CheckNoGoroutineLeak(t)()
		defer faultinject.ErrorAt("kernels.exec")()
		x := repro.NewRandomDense(m.Cols, 8, 1)
		y := repro.NewDense(m.Rows, 8)
		if err := repro.SpMMIntoCtx(context.Background(), y, m, x); !errors.Is(err, faultinject.Err) {
			t.Fatalf("SpMMIntoCtx with kernel fault = %v, want faultinject.Err", err)
		}
	})
	// A worker panic anywhere surfaces as *PanicError through the facade.
	t.Run("panic", func(t *testing.T) {
		defer testutil.CheckNoGoroutineLeak(t)()
		defer faultinject.PanicAt("reorder.cluster")()
		_, err := repro.PreprocessCtx(context.Background(), m, cfg)
		var pe *repro.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("worker panic surfaced as %v, want *repro.PanicError", err)
		}
	})
}

func TestPublicAPIRejectsInvalidMatrix(t *testing.T) {
	m := freshScrambled(t, 1002)
	bad := m.Clone()
	bad.Val[0] = float32(math.NaN())
	if _, err := repro.NewPipeline(bad, repro.DefaultConfig()); !errors.Is(err, repro.ErrInvalidMatrix) {
		t.Fatalf("NewPipeline(NaN) = %v, want ErrInvalidMatrix", err)
	}
	if _, err := repro.NewOnlinePipelineCtx(context.Background(), bad, repro.DefaultConfig()); !errors.Is(err, repro.ErrInvalidMatrix) {
		t.Fatalf("NewOnlinePipelineCtx(NaN) = %v, want ErrInvalidMatrix", err)
	}
}

// With an already-expired budget the constructor must return a pipeline
// that answers its first SpMM immediately via the no-reorder plan, then
// report the degradation.
func TestOnlinePipelineCtxBudgetExpired(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 1003)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Nanosecond
	o, err := repro.NewOnlinePipelineCtx(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 16, 2)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	// First call must not wait for preprocessing.
	got, err := spmmOf(context.Background(), o, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("degraded-mode SpMM diverges at %d", i)
		}
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := o.WaitPreprocessed(wctx); err != nil {
		t.Fatalf("WaitPreprocessed: %v", err)
	}
	deg, cause := o.Degraded()
	if !deg || !errors.Is(cause, context.DeadlineExceeded) {
		t.Fatalf("Degraded = %v, %v; want true, DeadlineExceeded", deg, cause)
	}
	done, rrWon := o.Decided()
	if !done || rrWon {
		t.Fatalf("Decided = %v, %v; want settled on no-reorder", done, rrWon)
	}
	if rrT, nrT := o.TrialTimes(); rrT != 0 || nrT != 0 {
		t.Fatalf("degraded pipeline recorded trial times %v/%v", rrT, nrT)
	}
}

// A failing background build (not a timeout) must degrade the same way
// and never crash even when the failure is a worker panic.
func TestOnlinePipelineCtxBuildPanicDegrades(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 1004)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	defer faultinject.PanicAt("lsh.banding")()
	o, err := repro.NewOnlinePipelineCtx(context.Background(), m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 8)
	deg, cause := o.Degraded()
	var pe *repro.PanicError
	if !deg || !errors.As(cause, &pe) {
		t.Fatalf("Degraded = %v, %v; want true with *PanicError", deg, cause)
	}
	x := repro.NewRandomDense(m.Cols, 8, 3)
	if _, err := spmmOf(context.Background(), o, x); err != nil {
		t.Fatalf("degraded pipeline cannot serve: %v", err)
	}
}

// A trial cancelled mid-flight must not publish a winner; a later call
// re-runs the trial and decides.
func TestOnlinePipelineCtxTrialCancelled(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 1005)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	o, err := repro.NewOnlinePipelineCtx(context.Background(), m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 8)
	if deg, cause := o.Degraded(); deg {
		t.Fatalf("unexpected degradation: %v", cause)
	}
	x := repro.NewRandomDense(m.Cols, 16, 4)
	ctx, cancel := context.WithCancel(context.Background())
	restore := faultinject.Set("kernels.exec", func() error { cancel(); return nil })
	_, err = spmmOf(ctx, o, x)
	restore()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled trial = %v, want context.Canceled", err)
	}
	if done, _ := o.Decided(); done {
		t.Fatalf("cancelled trial published a winner")
	}
	// A later, uncancelled call runs the trial to completion.
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spmmOf(context.Background(), o, x)
	if err != nil {
		t.Fatalf("post-cancel trial: %v", err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("post-cancel call did not decide")
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("post-cancel result diverges at %d", i)
		}
	}
}

// Concurrent callers hammering a pipeline whose reordered build is
// still pending (or doomed) must all be served correctly from the
// no-reorder plan, with no locking them behind preprocessing.
func TestOnlinePipelineCtxConcurrentDegraded(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 1006)
	warmKernelPool(t, m)

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Nanosecond
	o, err := repro.NewOnlinePipelineCtx(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 8, 5)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				y := repro.GetDense(m.Rows, x.Cols)
				if err := o.SpMMIntoCtx(context.Background(), y, x); err != nil {
					errs[g] = err
					repro.PutDense(y)
					return
				}
				for i := range want.Data {
					if math.Abs(float64(want.Data[i]-y.Data[i])) > 1e-4 {
						errs[g] = errDiverged
						repro.PutDense(y)
						return
					}
				}
				repro.PutDense(y)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
	if err := o.WaitPreprocessed(context.Background()); err != nil {
		t.Fatal(err)
	}
	if deg, _ := o.Degraded(); !deg {
		t.Fatalf("expired budget did not degrade the pipeline")
	}
}

// The happy path of the budgeted constructor: a generous budget lets
// the background build land, the first call runs the trial, and nothing
// is degraded.
func TestOnlinePipelineCtxBuildLands(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 1007)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	o, err := repro.NewOnlinePipelineCtx(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 8)
	if deg, cause := o.Degraded(); deg {
		t.Fatalf("build within budget degraded: %v", cause)
	}
	x := repro.NewRandomDense(m.Cols, 16, 6)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spmmOf(context.Background(), o, x)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("first call after build did not decide")
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("budgeted pipeline diverges at %d", i)
		}
	}
}

// Cancelling the constructor's ctx aborts the background build, also
// one a wide call starts afterwards (and is reported as the degradation
// cause).
func TestOnlinePipelineCtxConstructorCancel(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 1008)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	ctx, cancel := context.WithCancel(context.Background())
	o, err := repro.NewOnlinePipelineCtx(ctx, m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	repro.BuildReorderedForTest(t, o, 8)
	deg, cause := o.Degraded()
	if !deg || !errors.Is(cause, context.Canceled) {
		t.Fatalf("Degraded = %v, %v; want true, context.Canceled", deg, cause)
	}
	x := repro.NewRandomDense(m.Cols, 8, 7)
	if _, err := spmmOf(context.Background(), o, x); err != nil {
		t.Fatalf("degraded pipeline cannot serve: %v", err)
	}
}

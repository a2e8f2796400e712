package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/plancache"
)

func TestParseCacheSize(t *testing.T) {
	for s, want := range map[string]int64{"2048K": 2 << 20, "1M": 1 << 20, "512": 512, "1G": 1 << 30} {
		if got, ok := parseCacheSize(s); !ok || got != want {
			t.Errorf("parseCacheSize(%q) = %d, %v; want %d", s, got, ok, want)
		}
	}
	for _, s := range []string{"", "K", "-1K", "0K", "2048KB", "1.5M", "lots", "9999999999999999999G"} {
		if got, ok := parseCacheSize(s); ok {
			t.Errorf("parseCacheSize(%q) = %d, accepted", s, got)
		}
	}
}

// readL2 takes the first level-2 data or unified cache's size and falls
// back to 1 MiB when the directory holds none it can read.
func TestReadL2(t *testing.T) {
	type cache struct{ level, typ, size string } // "" omits the file
	for _, c := range []struct {
		name   string
		caches []cache
		want   int64
	}{
		{"2048K", []cache{{"1", "Data", "48K"}, {"1", "Instruction", "32K"}, {"2", "Unified", "2048K"}, {"3", "Unified", "32768K"}}, 2 << 20},
		{"1M", []cache{{"1", "Data", "32K"}, {"2", "Unified", "1M"}}, 1 << 20},
		{"instruction L2 skipped", []cache{{"2", "Instruction", "64K"}, {"2", "Data", "512K"}}, 512 << 10},
		{"missing size", []cache{{"1", "Data", "48K"}, {"2", "Unified", ""}}, fallbackL2},
		{"garbled size", []cache{{"2", "Unified", "two megs"}}, fallbackL2},
		{"missing level", []cache{{"", "Unified", "2048K"}}, fallbackL2},
		{"no level 2", []cache{{"1", "Data", "48K"}, {"3", "Unified", "8M"}}, fallbackL2},
		{"no caches", nil, fallbackL2},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for i, ca := range c.caches {
				idx := filepath.Join(dir, "index"+strconv.Itoa(i))
				if err := os.Mkdir(idx, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, v := range map[string]string{"level": ca.level, "type": ca.typ, "size": ca.size} {
					if v == "" {
						continue
					}
					if err := os.WriteFile(filepath.Join(idx, name), []byte(v+"\n"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := readL2(dir); got != c.want {
				t.Fatalf("readL2 = %d, want %d", got, c.want)
			}
		})
	}
	if got := readL2(filepath.Join(t.TempDir(), "absent")); got != fallbackL2 {
		t.Fatalf("readL2 of a missing directory = %d, want %d", got, fallbackL2)
	}
}

// The gate's decisions on the serve workload's matrices (seed 41) with
// a 2 MiB L2: no serving width (K ≤ 16, X at most 0.56·L2) reorders,
// and K ≥ 32 does, for the hot and uniform tenants and every R-MAT
// panel. Each panel of the sharded tenant is gated on the columns it
// references itself.
func TestGateOnServeMatrices(t *testing.T) {
	const l2 = 2 << 20
	SetGateL2ForTest(t, l2)
	hot, err := GenerateScrambledClusters(16384, 16384, 2048, 41)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := GenerateUniform(16384, 16384, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := GenerateRMAT(15, 16, 43)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedPipeline(rm, DefaultConfig(), 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Panels() < 2 {
		t.Fatalf("R-MAT did not shard: %d panel", sp.Panels())
	}
	mats := map[string]*Matrix{"hot": hot, "uniform": uni}
	for i, pn := range sp.panels {
		m := pn.pipe.Matrix()
		mats["rmat panel "+strconv.Itoa(i)] = m
		if g := pn.pipe.gate; g != newReorderGate(m, DefaultConfig()) {
			t.Errorf("panel %d is gated on %d columns, references %d", i, g.cols, referencedCols(m))
		}
	}
	for name, m := range mats {
		g := newReorderGate(m, DefaultConfig())
		t.Logf("%s: %d referenced columns, reorders from K=%d", name, g.cols, g.minK)
		if g.minK < 20 || g.minK > 25 {
			t.Errorf("%s: gate passes from K=%d, want 20..25", name, g.minK)
		}
		if f := float64(g.cols*16*4) / l2; f > 0.56 {
			t.Errorf("%s: X footprint at K=16 is %.2f·L2, want <= 0.56", name, f)
		}
		for _, k := range []int{1, 4, 16, 24, 32, 64} {
			want := 4*g.cols*k*gateDen >= gateNum*l2
			if got := g.pass(k); got != want || (k <= 16 && got) || (k >= 32 && !got) {
				t.Errorf("%s: pass(%d) = %v, want %v", name, k, got, want)
			}
		}
	}
	if g := newReorderGate(hot, Config{Disable: true}); g.pass(1 << 30) {
		t.Error("a Config that disables reordering passes the gate")
	}
}

// trials returns how many trials have decided in this process.
func trials() int64 { return onlineTrialsReordered.Value() + onlineTrialsPlain.Value() }

// Below the gate an online, a sharded and a live base build their
// no-reorder plans only — one plan-cache miss each (per panel) — and
// serve every call from them with no reordered build and no trial,
// including a live fold's rebuilt base.
func TestGateBelowBuildsNoReorderedPlan(t *testing.T) {
	SetGateL2ForTest(t, 2<<20)
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4431)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	x, yd := NewRandomDense(m.Cols, 16, 1), NewRandomDense(m.Rows, 16, 2)
	serve := func(u servingUnit, cur *Matrix) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if err := u.SpMMIntoCtx(ctx, NewDense(cur.Rows, 16), x); err != nil {
				t.Fatal(err)
			}
		}
		if err := u.SDDMMIntoCtx(ctx, cur.Clone(), x, yd); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func() (misses func() int64) {
		SetPlanCacheCapacity(DefaultPlanCacheCapacity)
		before := PlanCacheStats().Misses
		return func() int64 { return PlanCacheStats().Misses - before }
	}
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
	trials0 := trials()

	misses := fresh()
	o, err := NewOnlinePipelineCtx(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serve(o, m)
	if st := o.rr.state(); st != "none" || misses() != 1 {
		t.Fatalf("online: build %s after %d plan-cache misses, want none after 1", st, misses())
	}
	if done, won := o.Decided(); !done || won || o.Pipeline() != o.nr || !o.Preprocessed() {
		t.Fatalf("online: Decided %v, %v; want decided on the no-reorder plan", done, won)
	}
	if rr, nr := o.TrialTimes(); rr != 0 || nr != 0 {
		t.Fatalf("online: trial times %v, %v", rr, nr)
	}

	misses = fresh()
	sp, err := NewShardedPipelineCtx(ctx, m, cfg, m.NNZ()/3)
	if err != nil {
		t.Fatal(err)
	}
	serve(sp, m)
	if st := buildStates(sp); st != "none" || misses() != int64(sp.Panels()) {
		t.Fatalf("sharded: builds %s after %d plan-cache misses, want none after %d", st, misses(), sp.Panels())
	}

	misses = fresh()
	l, err := NewLivePipelineCtx(ctx, m, cfg, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Quiesce(ctx)
	serve(l, m)
	row := RowDef{Cols: []int32{2, 9, 600}, Vals: []float32{1, 2, 3}}
	if err := l.Mutate(ctx, Mutation{ReplaceRows: []RowUpdate{{Row: 5, Def: row}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitRebuilt(ctx); err != nil {
		t.Fatal(err)
	}
	serve(l, l.Matrix())
	if st := l.Online().rr.state(); st != "none" || l.Stats().Swaps != 1 || misses() != 2 {
		t.Fatalf("live: rebuilt base's build %s after %d swaps and %d plan-cache misses, want none after 1 and 2",
			st, l.Stats().Swaps, misses())
	}
	if got := trials() - trials0; got != 0 {
		t.Fatalf("%d trials ran below the gate", got)
	}
}

// buildStates joins the reordered-build states of sp's panels into one
// string, or returns the single state they share.
func buildStates(sp *ShardedPipeline) string {
	states := map[string]bool{}
	for _, pn := range sp.panels {
		states[pn.pipe.rr.state()] = true
	}
	if len(states) == 1 {
		for st := range states {
			return st
		}
	}
	return fmt.Sprint(states)
}

// holdBuilds blocks every reordered build at its clustering stage until
// the returned release is called (at the latest when the test ends).
func holdBuilds(t *testing.T) (release func()) {
	hold := make(chan struct{})
	unset := faultinject.Set("reorder.cluster", func() error { <-hold; return nil })
	release = sync.OnceFunc(func() { unset(); close(hold) })
	t.Cleanup(release)
	return release
}

// At or above the gate: concurrent wide calls start one background
// build and serve the no-reorder plan while it runs; once it lands the
// next wide call runs the trial, whose winner serves wide calls only.
// The build's trace names the width that started it.
func TestGateAboveBuildsOnceThenTrials(t *testing.T) {
	SetGateL2ForTest(t, 64<<10)
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4433)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s, err := NewServer(ctx, m, cfg, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	o := s.Pipeline()
	k := o.gate.minK
	if k < 2 || k > 64 {
		t.Fatalf("gate passes from K=%d; the test needs 2..64", k)
	}
	call := func(k int) error {
		x := NewRandomDense(m.Cols, k, int64(k))
		want, err := SpMM(m, x)
		if err != nil {
			return err
		}
		y := NewDense(m.Rows, k)
		if err := s.SpMMInto(ctx, y, x); err != nil {
			return err
		}
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-y.Data[i])) > 1e-4 {
				return fmt.Errorf("K=%d: result diverges at %d", k, i)
			}
		}
		return nil
	}
	misses0, trials0 := PlanCacheStats().Misses, trials()
	if err := call(k - 1); err != nil {
		t.Fatal(err)
	}
	if st := o.rr.state(); st != "none" {
		t.Fatalf("a call below the gate left the build %s", st)
	}

	release := holdBuilds(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(k); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := o.rr.state(); st != "building" || o.Preprocessed() {
		t.Fatalf("wide calls left the build %s (preprocessed %v), want it held in flight", st, o.Preprocessed())
	}
	if done, _ := o.Decided(); done {
		t.Fatal("a pending wide decision reads as decided")
	}
	// Until the trial, Pipeline and PlanFingerprint report the plan wide
	// calls run: the no-reorder plan.
	if o.Pipeline() != o.nr || o.PlanFingerprint() != o.nrFingerprint() {
		t.Fatal("a pending wide decision does not report the no-reorder plan it serves")
	}
	release()
	if err := o.WaitPreprocessed(ctx); err != nil {
		t.Fatal(err)
	}
	if st := o.rr.state(); st != "built" || PlanCacheStats().Misses-misses0 != 1 || trials() != trials0 {
		t.Fatalf("build %s after %d plan-cache misses and %d trials, want built after 1 and 0",
			st, PlanCacheStats().Misses-misses0, trials()-trials0)
	}
	if err := call(k); err != nil {
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done || trials()-trials0 != 1 {
		t.Fatalf("the first wide call after the build did not run one trial (%d ran)", trials()-trials0)
	}
	if rr, nr := o.TrialTimes(); rr <= 0 || nr <= 0 {
		t.Fatalf("trial times %v, %v", rr, nr)
	}
	if o.plan(k-1) != o.nr || o.plan(k) != o.winner.Load() {
		t.Fatal("the trial's winner does not serve wide calls only")
	}
	var widths []string
	for _, tr := range s.Traces().Snapshot() {
		if tr.Op == "build_reordered" {
			widths = append(widths, tr.Attrs["width"])
		}
	}
	if len(widths) != 1 || widths[0] != strconv.Itoa(k) {
		t.Fatalf("build_reordered traces with widths %v, want one with %d", widths, k)
	}
	ex, err := s.Explain(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if tr := ex.Trial; tr.L2Bytes != 64<<10 || tr.ReferencedCols != o.gate.cols || tr.MinReorderK != k || tr.Build != "built" {
		t.Fatalf("explain gate fields %+v", tr)
	}
}

// checkOracle fails the test unless got is the row-wise reference
// result on the unpermuted matrix, want, within float reassociation.
func checkOracle(t *testing.T, stage string, want, got []float32) {
	t.Helper()
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-4 {
			t.Fatalf("%s: result diverges from the row-wise oracle at %d: %v vs %v", stage, i, got[i], want[i])
		}
	}
}

// Above the gate every panel of a sharded pipeline runs the online
// strategy on its own rows: the first wide call starts each panel's
// reordered build and serves the no-reorder panels, the next one runs
// one §4 trial per panel, and the winners serve after that — for SpMM
// and for SDDMM, each call matching the row-wise oracle.
func TestShardedPanelsTrialAboveGate(t *testing.T) {
	SetGateL2ForTest(t, 0)
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4445)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	const k = 8
	x, yd := NewRandomDense(m.Cols, k, 1), NewRandomDense(m.Rows, k, 2)
	wantY, err := SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	wantO, err := SDDMM(m, x, yd)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"spmm", "sddmm"} {
		sp, err := NewShardedPipelineCtx(ctx, m, cfg, m.NNZ()/3)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Panels() < 2 {
			t.Fatalf("%s: %d panel", op, sp.Panels())
		}
		call := func(stage string) {
			t.Helper()
			stage = op + ": " + stage
			if op == "spmm" {
				y := NewDense(m.Rows, k)
				if err := sp.SpMMIntoCtx(ctx, y, x); err != nil {
					t.Fatal(err)
				}
				checkOracle(t, stage, wantY.Data, y.Data)
				return
			}
			out := m.Clone()
			if err := sp.SDDMMIntoCtx(ctx, out, x, yd); err != nil {
				t.Fatal(err)
			}
			checkOracle(t, stage, wantO.Val, out.Val)
		}
		trials0 := trials()
		call("first wide call")
		if err := sp.WaitPreprocessed(ctx); err != nil {
			t.Fatal(err)
		}
		if st := buildStates(sp); st != "built" || trials() != trials0 {
			t.Fatalf("%s: builds %s after %d trials, want built after 0", op, st, trials()-trials0)
		}
		call("trial")
		if got := trials() - trials0; got != int64(sp.Panels()) {
			t.Fatalf("%s: %d trials ran for %d panels", op, got, sp.Panels())
		}
		for i, pn := range sp.panels {
			if done, _ := pn.pipe.Decided(); !done {
				t.Fatalf("%s: panel %d undecided after its trial", op, i)
			}
		}
		call("decided")
		if got := trials() - trials0; got != int64(sp.Panels()) {
			t.Fatalf("%s: decided panels ran %d more trials", op, got-int64(sp.Panels()))
		}
	}
}

// A sharded tenant whose panels serve their reordered plans consults
// the breaker, and the tripped breaker's fallback runs every panel's
// no-reorder plan: with every reordered plan's values poisoned, the
// fallback still matches the row-wise oracle.
func TestShardedBreakerFallbackRunsEveryNoReorderPlan(t *testing.T) {
	SetGateL2ForTest(t, 0)
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4447)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s, err := NewServer(ctx, m, cfg, ServerConfig{
		ShardNNZ:         m.NNZ()/3 + 1,
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	sp := s.Sharded()
	if sp == nil || sp.Panels() < 2 {
		t.Fatal("matrix did not shard")
	}
	const k = 8
	BuildReorderedForTest(t, sp, k)
	for i, pn := range sp.panels {
		o := pn.pipe
		rr := o.rr.Load()
		if rr == nil || !rr.plan.NeedsReordering() || rr.plan.Reordered == o.Matrix() {
			t.Fatalf("panel %d has no reordered plan of its own", i)
		}
		// Force the verdict (timing decides a real trial), then poison
		// the plan it picked.
		o.mu.Lock()
		o.decide(rr, time.Millisecond, 2*time.Millisecond, k)
		o.mu.Unlock()
		for j, v := range rr.plan.Reordered.Val {
			rr.plan.Reordered.Val[j] = v*2 + 1
		}
	}
	x, yd := NewRandomDense(m.Cols, k, 1), NewRandomDense(m.Rows, k, 2)
	want, err := SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	wantO, err := SDDMM(m, x, yd)
	if err != nil {
		t.Fatal(err)
	}
	if !reorderedPathActive(s.def, k) {
		t.Fatal("the decided reordered panels do not count as the reordered path")
	}
	restore := faultinject.ErrorAt("kernels.exec")
	err = s.SpMMInto(ctx, NewDense(m.Rows, k), x)
	restore()
	if !errors.Is(err, faultinject.Err) || s.Stats().Breaker.Trips != 1 {
		t.Fatalf("a failing reordered request = %v and %d trips, want the fault and 1", err, s.Stats().Breaker.Trips)
	}
	y := NewDense(m.Rows, k)
	if err := s.SpMMInto(ctx, y, x); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "spmm fallback", want.Data, y.Data)
	out := m.Clone()
	if err := s.SDDMMInto(ctx, out, x, yd); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "sddmm fallback", wantO.Val, out.Val)
	if st := s.Stats(); st.Fallbacks != 2 || st.Fallbacks != st.Breaker.Rejected {
		t.Fatalf("fallbacks %d, breaker rejected %d; want 2 and equal", st.Fallbacks, st.Breaker.Rejected)
	}
}

// A one-panel base is the caller's matrix itself: the live pipeline,
// its online base and the Server's default tenant all report m, and
// serve NewPipelineNR(m)'s plan under its fingerprint.
func TestOnePanelBaseIsTheMatrix(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4449)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	nr, err := NewPipelineNR(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := plancache.Fingerprint(m, nr.plan.Cfg)
	l, err := NewLivePipelineCtx(ctx, m, cfg, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Quiesce(ctx)
	s, err := NewServer(ctx, m, cfg, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	for name, o := range map[string]*OnlinePipeline{"live": l.Online(), "server": s.Pipeline()} {
		if o == nil || o.Matrix() != m || o.nr.Matrix() != m {
			t.Fatalf("%s: the online base does not serve m itself", name)
		}
		if got := o.PlanFingerprint(); got != fp {
			t.Fatalf("%s: fingerprint %s, NewPipelineNR(m)'s %s", name, got, fp)
		}
	}
	if l.Matrix() != m || l.Sharded() != nil || s.Sharded() != nil {
		t.Fatal("an unsharded live pipeline reports a sharded base, or not m")
	}
	ex, err := s.Explain(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Mode != "online" || ex.PlanFingerprint != fp || len(ex.Panels) != 0 {
		t.Fatalf("explain: mode %s, fingerprint %s, %d panels", ex.Mode, ex.PlanFingerprint, len(ex.Panels))
	}
	sp, err := NewShardedPipeline(m, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Panels() != 1 || sp.Matrix() != m || sp.panels[0].pipe.Matrix() != m {
		t.Fatal("a one-panel sharded pipeline does not serve m itself")
	}
	y, want := NewDense(m.Rows, 4), NewDense(m.Rows, 4)
	x := NewRandomDense(m.Cols, 4, 1)
	if err := sp.SpMMIntoCtx(ctx, y, x); err != nil {
		t.Fatal(err)
	}
	if err := nr.SpMMIntoCtx(ctx, want, x); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(y.Data, want.Data) {
		t.Fatal("a one-panel base does not compute its no-reorder plan's bits")
	}
}

// A caller that waits for preprocessing, makes one wide call and then
// takes Pipeline() to time the served plan directly (as perfbench's
// layer sweep does) gets the plan wide calls run now — the no-reorder
// plan while the build that call started runs and until the next wide
// call trials it — and the trial's winner after that.
func TestPipelineReportsServedPlanWhileWideDecisionPends(t *testing.T) {
	SetGateL2ForTest(t, 64<<10)
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4441)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s, err := NewServer(ctx, m, cfg, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	o := s.Pipeline()
	k := o.gate.minK
	x := NewRandomDense(m.Cols, k, 1)
	y := NewDense(m.Rows, k)
	want, err := SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(stage string) {
		t.Helper()
		p := o.Pipeline()
		if p == nil {
			t.Fatalf("%s: Pipeline() is nil", stage)
		}
		yd := NewDense(m.Rows, k)
		if err := p.SpMMIntoCtx(ctx, yd, x); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-yd.Data[i])) > 1e-4 {
				t.Fatalf("%s: Pipeline() result diverges at %d", stage, i)
			}
		}
	}
	if err := o.WaitPreprocessed(ctx); err != nil {
		t.Fatal(err)
	}
	release := holdBuilds(t)
	if err := s.SpMMInto(ctx, y, x); err != nil {
		t.Fatal(err)
	}
	if o.Pipeline() != o.nr || o.PlanFingerprint() != o.nrFingerprint() {
		t.Fatal("while the build runs, Pipeline does not report the no-reorder plan")
	}
	direct("build in flight")
	release()
	if err := o.WaitPreprocessed(ctx); err != nil {
		t.Fatal(err)
	}
	if o.Pipeline() != o.nr {
		t.Fatal("before the trial, Pipeline does not report the no-reorder plan")
	}
	direct("built, not trialled")
	if err := s.SpMMInto(ctx, y, x); err != nil {
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done || o.Pipeline() != o.winner.Load() || o.PlanFingerprint() != o.planFP {
		t.Fatal("after the trial, Pipeline does not report its winner")
	}
	direct("decided")
}

// NewShardedPipelineCtx's ctx governs construction only: cancelling it
// afterwards does not degrade the reordered build a later wide call
// starts.
func TestShardedConstructorCtxDoesNotGovernLazyBuild(t *testing.T) {
	SetGateL2ForTest(t, 0)
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4443)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	sp, err := NewShardedPipelineCtx(ctx, m, cfg, m.NNZ()/3)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	BuildReorderedForTest(t, sp, 8)
	for i, pn := range sp.panels {
		if _, err := pn.pipe.Degraded(); err != nil {
			t.Fatalf("a cancelled constructor ctx degraded panel %d's lazy build: %v", i, err)
		}
	}
	if st := buildStates(sp); st != "built" {
		t.Fatalf("panel builds %s, want built", st)
	}
}

// A value-only mutation re-skins the base only after a reordered build
// in flight has landed, and re-skins the built plan too.
func TestReskinWaitsForLazyBuild(t *testing.T) {
	SetGateL2ForTest(t, 64<<10)
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4435)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	l, err := NewLivePipelineCtx(ctx, m, cfg, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Quiesce(ctx)
	o := l.Online()
	k := o.gate.minK
	release := holdBuilds(t)
	if err := l.SpMMIntoCtx(ctx, NewDense(m.Rows, k), NewRandomDense(m.Cols, k, 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Mutate(ctx, randomValueBatch(m, rand.New(rand.NewSource(3)), 8)) }()
	select {
	case err := <-done:
		t.Fatalf("the re-skin did not wait for the build in flight (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	n := l.Online()
	rr := n.rr.Load()
	if n == o || l.Stats().Reskins != 1 || rr == nil || rr == o.rr.Load() {
		t.Fatal("the re-skinned base did not carry a re-skinned reordered plan")
	}
	assertSamePlanValues(t, rr, coldPipeline(t, l.Matrix(), cfg, false))
}

// A coalesced batch asks the gate about its widest operand: two K=16
// requests stack to K=32 but start no build below a gate at K=24, on an
// online base and on a sharded one (gated at K=24 on its widest panel,
// later on the rest). One K=24 operand starts it. Every batch matches
// the row-wise oracle.
func TestCoalescedBatchGatesOnWidestOperand(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4437)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	for _, sharded := range []bool{false, true} {
		target, cols := 0, referencedCols(m)
		if sharded {
			target, cols = m.NNZ()/3, 0
			for _, b := range panelBounds(m, target) {
				lo, hi := m.RowPtr[b[0]], m.RowPtr[b[1]]
				cols = max(cols, referencedCols(&Matrix{Cols: m.Cols, ColIdx: m.ColIdx[lo:hi]}))
			}
		}
		SetGateL2ForTest(t, int64(128*cols)) // gate at K=24
		l, err := newLivePipeline(ctx, m, cfg, target, sharded, LiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Quiesce(ctx)
		sp := l.state.Load().base
		if k := ShardedMinK(sp); k != 24 || sharded != (sp.Panels() > 1) {
			t.Fatalf("sharded=%v: %d panels gated from K=%d, want from 24", sharded, sp.Panels(), k)
		}
		batch := func(ks ...int) {
			t.Helper()
			ops := make([]BatchOp, len(ks))
			for i, k := range ks {
				ops[i] = BatchOp{Y: NewDense(m.Rows, k), X: NewRandomDense(m.Cols, k, int64(i))}
			}
			if err := kernels.SpMMBatchIntoCtx(ctx, l.batchPass(ops), ops); err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				want, err := SpMM(m, op.X)
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, fmt.Sprintf("sharded=%v batch %v", sharded, ks), want.Data, op.Y.Data)
			}
		}
		batch(16, 16)
		if st := buildStates(sp); st != "none" {
			t.Fatalf("sharded=%v: a 16+16 batch left the builds %s", sharded, st)
		}
		batch(24, 8)
		if st := buildStates(sp); st == "none" {
			t.Fatalf("sharded=%v: a batch with a K=24 operand did not start a build", sharded)
		}
		if err := sp.WaitPreprocessed(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

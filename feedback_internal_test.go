package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// decidedOnline builds an online pipeline whose decision events land in
// ring under the tenant label "unit", and runs its first-call trial so
// the feedback loop has a baseline to compare serving windows against.
func decidedOnline(t *testing.T, ring *obs.EventRing) *OnlinePipeline {
	t.Helper()
	SetGateL2ForTest(t, 0)
	m, err := GenerateScrambledClusters(512, 512, 32, 917)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	nr, err := NewPipelineNRCtx(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOnline(&servingEnv{ctx: ctx, events: ring, tenant: "unit"}, nr, cfg, newReorderGate(m, cfg))
	BuildReorderedForTest(t, o, 8)
	x := NewRandomDense(m.Cols, 8, 3)
	if err := o.SpMMIntoCtx(ctx, NewDense(m.Rows, 8), x); err != nil {
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatal("trial did not decide")
	}
	return o
}

// The feedback loop must flag a window whose observed cost per flop
// exceeds the trial loser's by more than the slack, and stay quiet
// within it. Window accounting is driven directly for determinism —
// wall-clock serving times are too noisy to pin a threshold on.
func TestMispickWindowEvaluation(t *testing.T) {
	ring := obs.NewEventRing(8)
	o := decidedOnline(t, ring)
	if o.loserNSPerFlop <= 0 {
		t.Fatalf("trial left no cost baseline: %v", o.loserNSPerFlop)
	}
	if o.PlanFingerprint() == "" {
		t.Fatal("decided pipeline has no plan fingerprint")
	}
	base := o.loserNSPerFlop

	// A window within the slack: observed = 1.05× the loser.
	o.fbNS.Store(int64(1.05 * base * 1e6))
	o.fbFlops.Store(1e6)
	o.evaluateWindow()
	if got := o.Mispicked(); got != 0 {
		t.Fatalf("in-slack window flagged: mispicks = %d", got)
	}

	// A window past the slack: observed = 2× the loser.
	before := autotuneMispicks.Value()
	o.fbNS.Store(int64(2 * base * 1e6))
	o.fbFlops.Store(1e6)
	o.evaluateWindow()
	if got := o.Mispicked(); got != 1 {
		t.Fatalf("mispicks = %d, want 1", got)
	}
	if got := autotuneMispicks.Value(); got != before+1 {
		t.Fatalf("spmmrr_autotune_mispick_total moved %d -> %d, want +1", before, got)
	}
	evs := ring.Snapshot()
	if len(evs) != 2 || evs[0].Type != obs.EventMispick || evs[1].Type != obs.EventTrialWinner {
		t.Fatalf("ring = %+v, want the trial winner then one mispick event", evs)
	}
	e := evs[0]
	if e.Tenant != "unit" || e.PlanFP != o.planFP || e.Kernel == "" {
		t.Fatalf("mispick event missing identity fields: %+v", e)
	}
	if e.Value < 1.8 || e.Value > 2.2 {
		t.Fatalf("mispick ratio = %v, want ~2", e.Value)
	}

	// Draining the window must have reset the accumulators.
	if o.fbNS.Load() != 0 || o.fbFlops.Load() != 0 {
		t.Fatal("window accumulators not drained")
	}

	// No baseline (degraded / undecided) never flags.
	o.loserNSPerFlop = 0
	o.fbNS.Store(1e9)
	o.fbFlops.Store(1)
	o.evaluateWindow()
	if got := o.Mispicked(); got != 1 {
		t.Fatalf("baseline-less window flagged: mispicks = %d", got)
	}
}

// observeServe must fill the window from served calls and evaluate it
// exactly every mispickWindow samples, and the serving entry points
// must feed it.
func TestMispickWindowFromServing(t *testing.T) {
	o := decidedOnline(t, nil)
	// Make every window a guaranteed mispick: the baseline says the
	// loser is (implausibly) sub-femtosecond per flop.
	o.loserNSPerFlop = 1e-12

	for i := 0; i < 2*mispickWindow; i++ {
		o.observeServe(time.Millisecond, 8)
	}
	if got := o.Mispicked(); got != 2 {
		t.Fatalf("mispicks = %d after %d samples with window %d, want 2", got, 2*mispickWindow, mispickWindow)
	}

	// The decided SpMM path itself must feed the window.
	x := NewRandomDense(o.Matrix().Cols, 8, 5)
	before := o.fbCount.Load()
	if err := o.SpMMIntoCtx(context.Background(), NewDense(o.Matrix().Rows, 8), x); err != nil {
		t.Fatal(err)
	}
	if got := o.fbCount.Load(); got != before+1 {
		t.Fatalf("served call did not enter the feedback window: count %d -> %d", before, got)
	}
}

// A reskin (same structure, new values) must carry the feedback
// baseline, fingerprint, and mispick history into the successor
// pipeline.
func TestMispickStateSurvivesReskin(t *testing.T) {
	o := decidedOnline(t, obs.NewEventRing(8))
	o.mispicks.Store(3)

	m2 := o.Matrix().Clone()
	for i := range m2.Val {
		m2.Val[i] *= 2
	}
	n, err := o.reskin(context.Background(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Mispicked() != 3 {
		t.Fatalf("reskin dropped mispick history: %d", n.Mispicked())
	}
	if n.loserNSPerFlop != o.loserNSPerFlop || n.planFP != o.planFP {
		t.Fatal("reskin dropped the feedback baseline")
	}
	if n.env != o.env {
		t.Fatal("reskin dropped the serving env")
	}
}

package repro

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/plancache"
)

// OnlinePipeline implements the paper's §4 *online* trial-and-error
// strategy: "perform row-reordering in the first iteration and do SpMM
// on both the reordered matrix and the original matrix. If the
// reordered matrix is faster, keep the row-reordering for the rest of
// iterations; otherwise, discard [it]" — but only at the widths where
// reordering can pay. Reordering saves time through cache reuse of X's
// rows, which matters only once X overflows the per-core L2, so a width
// gate (gate.go) compares X's footprint at a call's width K with ¾ of
// L2:
//
//   - A call below the gate runs the no-reorder (NR) plan on the
//     lock-free path: no reordered build, no trial.
//   - The first call at or above the gate starts the reordered build in
//     the background. Calls keep serving NR until it lands; the next
//     wide call then runs the trial — one untimed
//     warm-up of each plan, then three alternated timed runs of each,
//     medians compared, ties to NR — and its winner serves every later
//     wide call.
//
// Only the cheap NR plan is built before a constructor returns. The
// reordered build runs under the constructor's context and, when
// positive, cfg.PreprocessBudget of wall-clock time from its start; if
// it runs over budget, is cancelled, or fails, wide calls permanently
// settle on NR and Degraded records why. Serving is therefore never
// blocked on — and never crashes because of — preprocessing.
//
// Before any wide call a pipeline is decided on its NR plan: Decided
// reports (true, false), Pipeline returns the NR plan, PlanFingerprint
// its plan-cache key, and TrialTimes zeros. The first wide call reopens
// the decision for wide calls (Decided (false, false)) until the trial,
// or a degraded build, settles it; meanwhile Pipeline and
// PlanFingerprint keep reporting the NR plan, which those calls run. A
// Config that sets Disable gets a gate no width passes.
//
// Each row panel of a ShardedPipeline is an OnlinePipeline, so a panel
// runs this same gate, build and trial on its own rows.
//
// OnlinePipeline is safe for concurrent use. Narrow calls and decided
// wide calls execute without taking any lock, so N goroutines get
// N-way parallel SpMM/SDDMM; only concurrent undecided wide calls with
// both plans ready serialise, and they serialise only the trial itself.
type OnlinePipeline struct {
	nr *Pipeline

	// gate decides which widths may use the reordered plan; rr is that
	// plan's build, started at most once by the first call gate passes.
	gate reorderGate
	rr   lazyBuild
	// The build's inputs: its context, Config and trace ring.
	bctx context.Context
	cfg  Config
	ring *obs.TraceRing

	// winner is the plan wide calls run, nil until the trial decides or
	// the build degrades; decided calls go straight through this pointer
	// without touching mu.
	winner atomic.Pointer[Pipeline]

	mu     sync.Mutex // serialises the trial; guards the times below
	rrTime time.Duration
	nrTime time.Duration

	// Autotuner feedback (observability only — the winner is never
	// flipped mid-serve). Decided wide SpMM calls accumulate wall time
	// and flops into the fb* atomics; every fbWindow samples the window
	// is drained and its observed cost per flop compared against
	// loserNSPerFlop, the trial loser's measured cost — a window where
	// the serving plan underperforms the plan the trial rejected is a
	// mispick (see DESIGN.md §16). loserNSPerFlop and planFP are plain
	// fields written in decide before winner publishes; the
	// release-acquire pair on winner makes them safe to read on any
	// decided call.
	fbWindow int64 // samples per evaluation window
	fbCount  atomic.Int64
	fbNS     atomic.Int64
	fbFlops  atomic.Int64
	mispicks atomic.Int64

	loserNSPerFlop float64
	planFP         string

	// nrFP caches the no-reorder plan's plan-cache key (an O(nnz) hash),
	// computed on first use.
	nrFP atomic.Pointer[string]

	// sink, when set, receives decision events (trial winner, mispick).
	sink atomic.Pointer[eventSink]
}

// eventSink binds a decision-event ring to the tenant label its events
// carry. Shared by OnlinePipeline and LivePipeline.
type eventSink struct {
	ring   *obs.EventRing
	tenant string
}

func (s *eventSink) emit(e obs.Event) {
	if s != nil {
		e.Tenant = s.tenant
		s.ring.Emit(e)
	}
}

// defaultMispickWindow is the feedback evaluation window (samples per
// evaluation) every online pipeline starts with.
const defaultMispickWindow = 64

// mispickSlack is how much worse (×) than the trial loser a window's
// observed cost per flop must be before it counts as a mispick —
// absorbing timer noise and cache effects so a dead-heat trial does
// not flap the counter.
const mispickSlack = 1.1

type degradeReason struct{ err error }

// NewOnlinePipeline builds m's no-reorder plan and returns a pipeline
// that builds the reordered plan only for widths that pass the reorder
// gate (see OnlinePipeline). Both builds go through the process-wide
// plan cache, so an online pipeline over an already-seen sparsity
// structure (e.g. the same graph re-served with new values) starts in
// O(nnz) without any LSH, clustering, or tiling work.
//
// The first wide call starts the reordered build in the background,
// with no context but cfg.PreprocessBudget. For cancellable
// construction use NewOnlinePipelineCtx.
func NewOnlinePipeline(m *Matrix, cfg Config) (*OnlinePipeline, error) {
	return NewOnlinePipelineCtx(context.Background(), m, cfg)
}

// newOnline returns the online pipeline over the built NR plan with
// gate, and no reordered build started. The build, once a wide call
// starts it, runs under bctx and traces into ring when set.
func newOnline(bctx context.Context, nr *Pipeline, cfg Config, ring *obs.TraceRing, gate reorderGate) *OnlinePipeline {
	o := &OnlinePipeline{
		nr:       nr,
		gate:     gate,
		bctx:     bctx,
		cfg:      cfg,
		ring:     ring,
		fbWindow: defaultMispickWindow,
	}
	o.rr.init()
	return o
}

// NewOnlinePipelineCtx builds the serving-grade online pipeline: the
// cheap no-reorder plan is built synchronously (its error, if any, is
// the constructor's error), and the expensive reordered plan builds in
// a background goroutine — started by the first call the reorder gate
// passes — governed by ctx and, when
// positive, by cfg.PreprocessBudget of wall-clock time from its start.
// ctx must therefore outlive the pipeline's wide calls: a build started
// under a dead ctx degrades at once.
//
// The pipeline serves immediately: calls arriving before the reordered
// plan is ready execute on the no-reorder plan without waiting. When
// the background build lands, the next wide call runs the §4 trial. If
// the build exceeds its budget, observes ctx's cancellation, fails, or
// panics (surfaced as a *PanicError), wide calls permanently settle on
// the no-reorder plan — Decided then reports (true, false) and Degraded
// returns the recorded cause. A failed or cancelled build is never
// stored in the plan cache.
func NewOnlinePipelineCtx(ctx context.Context, m *Matrix, cfg Config) (*OnlinePipeline, error) {
	nr, err := NewPipelineNRCtx(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	return newOnline(ctx, nr, cfg, nil, newReorderGate(m, cfg)), nil
}

// startBuild starts the reordered build unless it already started;
// width is the width of the call that asked for it.
func (o *OnlinePipeline) startBuild(width int) {
	if o.rr.started.Load() {
		return
	}
	o.rr.start(o.bctx, o.cfg.PreprocessBudget, o.ring, width,
		func(ctx context.Context) (*Pipeline, error) {
			rr, err := NewPipelineCtx(ctx, o.nr.orig, o.cfg)
			if err == nil {
				obs.TraceFrom(ctx).Annotate("stages", rr.PlanStages().String())
			}
			return rr, err
		},
		func(err error) {
			if err != nil {
				o.winner.Store(o.nr)
				onlineDegraded.Inc()
			}
		})
}

// Decided reports whether wide calls — those at or above the reorder
// gate — have settled on a plan, and if so whether reordering won.
// Settling happens through the trial or by degrading to the no-reorder
// plan (reorderingWon false; see Degraded for why). A pipeline that has
// seen no wide call is decided on its no-reorder plan, which every call
// below the gate runs: (true, false).
func (o *OnlinePipeline) Decided() (done, reorderingWon bool) {
	if w := o.winner.Load(); w != nil {
		return true, w == o.rr.Load()
	}
	return !o.rr.started.Load(), false
}

// Degraded reports whether the reordered build was abandoned — budget
// exceeded, context cancelled, build error, or build panic — and the
// error that caused it. A degraded pipeline serves the no-reorder plan
// permanently.
func (o *OnlinePipeline) Degraded() (bool, error) {
	err := o.rr.failure()
	return err != nil, err
}

// WaitPreprocessed blocks until no reordered build is in flight —
// it finished (successfully or by degrading), or none was ever started
// — or ctx is cancelled. It returns ctx's error in the latter case and
// nil otherwise; check Degraded for the build's outcome.
func (o *OnlinePipeline) WaitPreprocessed(ctx context.Context) error { return o.rr.wait(ctx) }

// TrialTimes returns the medians of the timed runs in the deciding
// trial.
//
// Pre-decision contract: until a trial has decided, TrialTimes returns
// (0, 0) immediately — it is guarded by the winner pointer and never
// blocks on the decision lock, which an in-flight trial holds for the
// full duration of its kernel executions. A pipeline that has seen no
// wide call, a degraded one, and one whose reordered plan applied no
// round return zeros: no trial ran. Poll Decided (or make one wide
// call, WaitPreprocessed, then one more wide call) before treating the
// times as meaningful.
func (o *OnlinePipeline) TrialTimes() (reordered, plain time.Duration) {
	if o.winner.Load() == nil {
		return 0, 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rrTime, o.nrTime
}

// Pipeline returns the plan wide calls run: the trial's winner once
// decided, and the no-reorder plan before that — before any wide call,
// while the reordered build runs, before the trial, and after degrading.
// It is never nil.
func (o *OnlinePipeline) Pipeline() *Pipeline {
	if w := o.winner.Load(); w != nil {
		return w
	}
	return o.nr
}

// Matrix returns the original (unreordered) matrix.
func (o *OnlinePipeline) Matrix() *Matrix { return o.nr.Matrix() }

// Preprocessed reports, without blocking, whether no reordered build
// is in flight — the readiness signal a /readyz probe wants. It is true
// from construction until a wide call starts the build, and again once
// that build has finished (successfully or by degrading).
func (o *OnlinePipeline) Preprocessed() bool { return o.rr.idle() }

// current returns the plan a call at or above the gate arriving now
// executes on: the winner once decided, else the reordered plan once
// built (the call runs the trial on it), else the no-reorder plan.
func (o *OnlinePipeline) current() *Pipeline {
	if w := o.winner.Load(); w != nil {
		return w
	}
	if rr := o.rr.Load(); rr != nil {
		return rr
	}
	return o.nr
}

// plan returns the plan a call of width k arriving now executes on.
func (o *OnlinePipeline) plan(k int) *Pipeline {
	if !o.gate.pass(k) {
		return o.nr
	}
	return o.current()
}

// PlanStages returns the preprocessing stage breakdown of the plan a
// call at or above the gate arriving now would execute on: the
// winner's once decided, else the reordered plan's when its build has
// landed, else the no-reorder plan's (which every narrower call runs).
func (o *OnlinePipeline) PlanStages() StageTimings { return o.current().PlanStages() }

// Kernel returns the SpMM kernel of the plan a call at or above the
// gate arriving now would execute on, resolving the same way as
// PlanStages.
func (o *OnlinePipeline) Kernel() Kernel { return o.current().Kernel() }

// SpMMIntoCtx computes Y = S·X into y with cooperative cancellation
// between kernel chunks and panic isolation. A call below the reorder
// gate runs the no-reorder plan. At or above it, the first call starts
// the reordered build and runs the no-reorder plan, as do later calls
// while the build runs; the first call after it lands runs the trial
// and keeps the faster plan, and later calls use the winner. Every
// call but the trial is lock-free and allocation-free. A call
// cancelled mid-trial returns ctx's error without publishing a winner;
// a later wide call re-runs the trial.
func (o *OnlinePipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	return o.spmmInto(ctx, y, x, x.Cols)
}

// spmmInto is SpMMIntoCtx with the reorder gate asked about width k
// rather than x.Cols: 0, which no gate passes, for the breaker's
// no-reorder fallback and for a coalesced batch whose operands are all
// below the gate (see narrowPass).
func (o *OnlinePipeline) spmmInto(ctx context.Context, y *Dense, x *Dense, k int) error {
	start := time.Now()
	decided, err := o.dispatch(k, x.Cols, y.Data, func(p *Pipeline, dst []float32) error {
		if dst == nil {
			return p.SpMMIntoCtx(ctx, y, x)
		}
		return p.SpMMIntoCtx(ctx, &Dense{Rows: y.Rows, Cols: y.Cols, Data: dst}, x)
	})
	if decided && err == nil {
		o.observeServe(time.Since(start), x.Cols)
	}
	return err
}

// SDDMMIntoCtx computes O = S ⊙ (Y·Xᵀ) into out, which must have the
// matrix's sparsity structure, with the same gate, the same trial, the
// same lock-free decided path, and the same serve-NR-while-building
// behaviour as SpMMIntoCtx. out's structure is checked once, here.
func (o *OnlinePipeline) SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error {
	if err := checkSDDMMOut(out, o.nr.orig); err != nil {
		return err
	}
	return o.sddmmInto(ctx, out, x, y, x.Cols)
}

// sddmmInto is SDDMMIntoCtx for an out whose structure the caller has
// checked, with the reorder gate asked about width k (see spmmInto).
func (o *OnlinePipeline) sddmmInto(ctx context.Context, out *Matrix, x, y *Dense, k int) error {
	_, err := o.dispatch(k, x.Cols, out.Val, func(p *Pipeline, dst []float32) error {
		if dst == nil {
			return p.sddmmInto(ctx, out, x, y)
		}
		view := *out
		view.Val = dst
		return p.sddmmInto(ctx, &view, x, y)
	})
	return err
}

// dispatch routes one call the gate judges at width k: below the gate,
// or with the reordered plan not yet built, it runs the no-reorder
// plan (starting the build if the gate passes); a decided pipeline runs
// the winner; otherwise the call runs the §4 trial at width flopK, the
// call's own. run executes the call on plan p, into the caller's
// output (whose values are out) when dst is nil and otherwise into dst,
// a scratch buffer of len(out). decided reports whether the winner
// served the call.
func (o *OnlinePipeline) dispatch(k, flopK int, out []float32, run func(p *Pipeline, dst []float32) error) (decided bool, err error) {
	if !o.gate.pass(k) {
		return false, run(o.nr, nil)
	}
	if w := o.winner.Load(); w != nil {
		return true, run(w, nil)
	}
	if rr := o.rr.Load(); rr != nil {
		return false, o.trial(rr, flopK, out, run)
	}
	// Reordered plan not ready: serve the no-reorder plan now rather
	// than blocking the caller on preprocessing.
	o.startBuild(k)
	return false, run(o.nr, nil)
}

// trialRuns is how many timed runs of each plan a trial compares by
// median, so no decision hinges on one noisy sample. The trial runs
// only at widths where a pass costs ~0.6 ms or more on the serving
// matrices, so the extra runs are cheap.
const trialRuns = 3

// trial runs the §4 trial under the decision lock: warm-up both plans
// untimed (so neither eats the cold-cache penalty the other is measured
// without), then time trialRuns alternated runs of each, and publish
// the plan with the lower median (ties keep NR). Both plans run into
// pooled scratch and the winner's result is copied into the caller's
// output, so the loser's discarded output is never what the caller
// observes. Any error — including ctx's cancellation mid-flight —
// aborts the trial without publishing a winner. When the reordered
// plan applied no round there is nothing to decide: NR is published
// with zero times before the call runs once.
func (o *OnlinePipeline) trial(rr *Pipeline, k int, out []float32, run func(*Pipeline, []float32) error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if w := o.winner.Load(); w != nil {
		// Another goroutine decided while this one waited on the lock.
		return run(w, nil)
	}
	if !rr.plan.NeedsReordering() {
		// Both plans compute the same thing the same way. decide still
		// emits the trial_winner event the event ledger counts on.
		return run(o.decide(rr, 0, 0, k), nil)
	}
	scratch := dense.Get(2, len(out))
	defer dense.Put(scratch)
	dstRR, dstNR := scratch.Data[:len(out)], scratch.Data[len(out):]
	// Untimed warm-up of each plan (touches the operands and primes the
	// kernels' pooled state for both).
	if err := run(rr, dstRR); err != nil {
		return err
	}
	if err := run(o.nr, dstNR); err != nil {
		return err
	}
	var rrT, nrT [trialRuns]time.Duration
	for i := range trialRuns {
		t0 := time.Now()
		if err := run(rr, dstRR); err != nil {
			return err
		}
		rrT[i] = time.Since(t0)
		t0 = time.Now()
		if err := run(o.nr, dstNR); err != nil {
			return err
		}
		nrT[i] = time.Since(t0)
	}
	if o.decide(rr, median(rrT), median(nrT), k) == rr {
		copy(out, dstRR)
	} else {
		copy(out, dstNR)
	}
	return nil
}

// median returns the median of the trial's timed runs.
func median(t [trialRuns]time.Duration) time.Duration {
	slices.Sort(t[:])
	return t[trialRuns/2]
}

// reskin re-skins this online pipeline for a matrix with the *same
// sparsity structure* but new nonzero values — the value-only mutation
// path of a live matrix. Each plan it serves is re-skinned by one
// O(nnz) value walk (Pipeline.withValues) that shares every structure
// array: no plan-cache lookup, no preprocessing, and the plans — and
// the configurations they were built under — stay exactly the ones the
// trial measured. The gate carries over too: it depends on the
// structure alone.
//
// The trial decision carries over: structure is what the §4 trial
// measures, and the structure has not changed, so if the old pipeline
// had settled on (say) the reordered plan the new one starts settled on
// its reskinned counterpart — no re-trial, no window where serving
// would flap back to NR. A pipeline whose reordered build never started
// reskins to one that has not started it either; a degraded one keeps
// its recorded cause. A reordered build still in flight is waited for
// first: reskinning a moving target would race the build's publication.
func (o *OnlinePipeline) reskin(ctx context.Context, m *Matrix) (*OnlinePipeline, error) {
	if err := o.WaitPreprocessed(ctx); err != nil {
		return nil, err
	}
	nr, err := o.nr.withValues(m)
	if err != nil {
		return nil, err
	}
	n := newOnline(o.bctx, nr, o.cfg, o.ring, o.gate)
	n.nrFP.Store(o.nrFP.Load()) // the key names structure and Config, not values
	n.fbWindow = o.fbWindow
	n.sink.Store(o.sink.Load())
	n.mispicks.Store(o.mispicks.Load())
	if d := o.rr.failed.Load(); d != nil {
		// Degraded: the re-skinned NR plan serves, decided.
		n.rr.fail(d)
		n.winner.Store(nr)
		return n, nil
	}
	oldRR := o.rr.Load()
	if oldRR == nil {
		// No wide call yet: nothing was built, nothing is decided beyond
		// the gate.
		return n, nil
	}
	rr, err := oldRR.withValues(m)
	if err != nil {
		return nil, err
	}
	n.rr.set(rr)
	if w := o.winner.Load(); w != nil {
		// n is not published yet, so its fields need no lock.
		n.rrTime, n.nrTime = o.TrialTimes()
		// The trial decision carries over, and with it the feedback
		// baseline: a value-only re-skin preserves structure, so both
		// the fingerprint and the loser's cost per flop still describe
		// the plans now serving. Written before winner.Store publishes.
		n.loserNSPerFlop = o.loserNSPerFlop
		n.planFP = o.planFP
		if w == oldRR {
			n.winner.Store(rr)
		} else {
			n.winner.Store(nr)
		}
	}
	return n, nil
}

// decide publishes the winner; ties keep the plain plan (no reordering
// to maintain). Caller holds o.mu; the times are recorded only here so
// an aborted trial leaves them zero. k is the dense width the trial
// ran at — it converts the loser's wall time into the cost-per-flop
// baseline the feedback loop compares serving windows against. The
// baseline and the winner's plan fingerprint are plain fields written
// before winner.Store publishes, so any decided call reads them safely
// through the release-acquire pair on winner.
func (o *OnlinePipeline) decide(rr *Pipeline, rrTime, nrTime time.Duration, k int) *Pipeline {
	o.rrTime, o.nrTime = rrTime, nrTime
	w, won, loser := o.nr, nrTime, rrTime
	if rrTime < nrTime {
		w, won, loser = rr, rrTime, nrTime
	}
	if flops := kernels.Flops(o.nr.Matrix().NNZ(), k); flops > 0 {
		o.loserNSPerFlop = float64(loser.Nanoseconds()) / flops
	}
	o.planFP = plancache.Fingerprint(o.nr.Matrix(), w.plan.Cfg)
	o.winner.Store(w)
	recordTrial(w == rr, rrTime, nrTime)
	detail := "plain"
	if w == rr {
		detail = "reordered"
	}
	speedup := 0.0
	if won > 0 {
		speedup = float64(loser) / float64(won)
	}
	o.sink.Load().emit(obs.Event{
		Type:   obs.EventTrialWinner,
		PlanFP: o.planFP,
		Kernel: w.Kernel().String(),
		Detail: detail,
		Value:  speedup,
	})
	return w
}

// observeServe accumulates one successful decided SpMM call into the
// feedback window and evaluates the window when it fills. Atomics
// only — this sits on the zero-allocation serving fast path.
func (o *OnlinePipeline) observeServe(d time.Duration, k int) {
	o.fbNS.Add(d.Nanoseconds())
	o.fbFlops.Add(int64(kernels.Flops(o.nr.Matrix().NNZ(), k)))
	if n := o.fbCount.Add(1); n%o.fbWindow == 0 {
		o.evaluateWindow()
	}
}

// evaluateWindow drains one feedback window and flags a mispick when
// the observed serving cost per flop exceeds the trial loser's by more
// than mispickSlack. Observability only: the winner never flips.
func (o *OnlinePipeline) evaluateWindow() {
	ns := o.fbNS.Swap(0)
	flops := o.fbFlops.Swap(0)
	base := o.loserNSPerFlop // decided: safe via winner's release-acquire
	if base <= 0 || ns <= 0 || flops <= 0 {
		return // degraded pipeline or unmeasured trial: no baseline
	}
	observed := float64(ns) / float64(flops)
	if observed <= mispickSlack*base {
		return
	}
	o.mispicks.Add(1)
	recordMispick()
	o.sink.Load().emit(obs.Event{
		Type:   obs.EventMispick,
		PlanFP: o.planFP,
		Kernel: o.winner.Load().Kernel().String(),
		Detail: "serving cost/flop exceeded trial loser",
		Value:  observed / base,
	})
}

// Mispicked returns how many feedback windows observed the serving
// plan underperforming the measured trial loser (see DESIGN.md §16).
func (o *OnlinePipeline) Mispicked() int64 { return o.mispicks.Load() }

// PlanFingerprint returns the plan-cache fingerprint of the plan
// Pipeline returns: the winning plan's once the trial has decided, the
// no-reorder plan's until then, and "" after the build degraded (no
// trial ever measured a plan).
func (o *OnlinePipeline) PlanFingerprint() string {
	if o.winner.Load() != nil {
		return o.planFP
	}
	return o.nrFingerprint()
}

// nrFingerprint returns the no-reorder plan's plan-cache key.
func (o *OnlinePipeline) nrFingerprint() string {
	if fp := o.nrFP.Load(); fp != nil {
		return *fp
	}
	fp := plancache.Fingerprint(o.nr.orig, o.nr.plan.Cfg)
	o.nrFP.Store(&fp)
	return fp
}

// setEventSink routes this pipeline's decision events (trial winner,
// mispick) to ring, labelled with tenant. nil rings are ignored.
func (o *OnlinePipeline) setEventSink(ring *obs.EventRing, tenant string) {
	if ring == nil {
		return
	}
	o.sink.Store(&eventSink{ring: ring, tenant: tenant})
}

// setMispickWindow overrides the feedback evaluation window (samples
// per evaluation; <=0 restores the default). Call before serving.
func (o *OnlinePipeline) setMispickWindow(n int) {
	if n <= 0 {
		n = defaultMispickWindow
	}
	o.fbWindow = int64(n)
}

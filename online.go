package repro

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plancache"
)

// OnlinePipeline implements the paper's §4 *online* trial-and-error
// strategy: "perform row-reordering in the first iteration and do SpMM
// on both the reordered matrix and the original matrix. If the
// reordered matrix is faster, keep the row-reordering for the rest of
// iterations; otherwise, discard [it]". The first SpMM (or SDDMM) call
// after both plans exist runs the trial — one untimed warm-up of each
// plan to strip the cold-cache penalty, then one timed run of each —
// and locks in the winner for every subsequent call.
//
// Built with NewOnlinePipelineCtx, the pipeline is additionally
// *degradation-hardened*: only the cheap no-reorder (ASpT-NR) plan is
// built before the constructor returns, while the expensive reordered
// plan builds in the background under cfg.PreprocessBudget. Until that
// build lands, calls serve the NR plan immediately; if the build runs
// over budget, is cancelled, or fails, the pipeline permanently settles
// on NR and records why (see Degraded). Serving is therefore never
// blocked on — and never crashes because of — preprocessing.
//
// A pipeline whose Config sets Disable has nothing to trial: it builds
// only the NR plan and is decided on it before its constructor returns
// (no background build, no trial, zero TrialTimes). The live rebuild
// builds its bases this way.
//
// OnlinePipeline is safe for concurrent use. Once the trial has
// decided, calls load the winner through an atomic pointer and execute
// without taking any lock, so N goroutines get N-way parallel
// SpMM/SDDMM; only concurrent *undecided* calls with both plans ready
// serialise, and they serialise only the trial itself.
type OnlinePipeline struct {
	nr *Pipeline

	// rr is nil until the reordered build lands (immediately in
	// NewOnlinePipeline; in the background in NewOnlinePipelineCtx), and
	// forever when the Config disables reordering.
	rr atomic.Pointer[Pipeline]

	// winner is nil until the trial decides or the pipeline degrades;
	// decided calls go straight through this pointer without touching mu.
	winner atomic.Pointer[Pipeline]

	// degraded records why the reordered build was abandoned (nil while
	// it is pending or after it succeeded).
	degraded atomic.Pointer[degradeReason]

	// buildDone closes when the background reordered build finishes,
	// for better or worse.
	buildDone chan struct{}

	mu     sync.Mutex // serialises the trial; guards the times below
	rrTime time.Duration
	nrTime time.Duration

	// Autotuner feedback (observability only — the winner is never
	// flipped mid-serve). Decided SpMM calls accumulate wall time and
	// flops into the fb* atomics; every fbWindow samples the window is
	// drained and its observed cost per flop compared against
	// loserNSPerFlop, the trial loser's measured cost — a window where
	// the serving plan underperforms the plan the trial rejected is a
	// mispick (see DESIGN.md §16). loserNSPerFlop and planFP are plain
	// fields written in decide before winner publishes; the
	// release-acquire pair on winner makes them safe to read on any
	// decided call.
	fbWindow int64 // samples per evaluation window (0 disables)
	fbCount  atomic.Int64
	fbNS     atomic.Int64
	fbFlops  atomic.Int64
	mispicks atomic.Int64

	loserNSPerFlop float64
	planFP         string

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

// closedChan is shared by every synchronously constructed pipeline.
var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// NewOnlinePipeline preprocesses m both ways (with the §4 heuristics and
// without any reordering) and returns a pipeline that will pick between
// them on first use. Both builds go through the process-wide plan
// cache, so an online pipeline over an already-seen sparsity structure
// (e.g. the same graph re-served with new values) starts in O(nnz)
// without any LSH, clustering, or tiling work.
//
// Both builds run synchronously: the constructor does not return until
// the reordered plan exists (or errors). For budgeted, non-blocking
// construction use NewOnlinePipelineCtx. With cfg.Disable set only the
// no-reorder plan is built, and the pipeline is decided on it.
func NewOnlinePipeline(m *Matrix, cfg Config) (*OnlinePipeline, error) {
	nr, err := NewPipelineNR(m, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Disable {
		return singlePlan(nr), nil
	}
	rr, err := NewPipeline(m, cfg)
	if err != nil {
		return nil, err
	}
	o := &OnlinePipeline{nr: nr, buildDone: closedChan, fbWindow: defaultMispickWindow}
	o.rr.Store(rr)
	return o, nil
}

// singlePlan returns the online pipeline over nr alone, already decided
// on it: its Config disables reordering, so there is no reordered plan
// to build and no trial to run. PlanFingerprint is nr's own key.
func singlePlan(nr *Pipeline) *OnlinePipeline {
	o := &OnlinePipeline{nr: nr, buildDone: closedChan, fbWindow: defaultMispickWindow}
	o.planFP = plancache.Fingerprint(nr.orig, nr.plan.Cfg)
	o.winner.Store(nr)
	return o
}

// NewOnlinePipelineCtx builds the serving-grade online pipeline: the
// cheap no-reorder plan is built synchronously (its error, if any, is
// the constructor's error), and the expensive reordered plan builds in
// a background goroutine governed by ctx and, when positive, by
// cfg.PreprocessBudget of wall-clock time.
//
// The pipeline serves immediately: SpMM/SDDMM calls arriving before the
// reordered plan is ready execute on the no-reorder plan without
// waiting. When the background build lands, the next call runs the §4
// trial as usual. If the build exceeds its budget, observes ctx's
// cancellation, fails, or panics (surfaced as a *PanicError), the
// pipeline permanently degrades to the no-reorder plan — Decided then
// reports (true, false) and Degraded returns the recorded cause. A
// failed or cancelled build is never stored in the plan cache. With
// cfg.Disable set there is no background build: the pipeline returns
// decided on the no-reorder plan and cannot degrade.
func NewOnlinePipelineCtx(ctx context.Context, m *Matrix, cfg Config) (*OnlinePipeline, error) {
	return newOnlinePipelineCtx(ctx, m, cfg, nil)
}

// newOnlinePipelineCtx is NewOnlinePipelineCtx with an optional trace
// ring: when ring is non-nil, the background reordered build runs under
// a "build_reordered" trace — carrying the preprocessing stage spans
// recorded inside reorder — which is pushed to the ring when the build
// settles. The Server passes its /debug/traces ring here.
func newOnlinePipelineCtx(ctx context.Context, m *Matrix, cfg Config, ring *obs.TraceRing) (*OnlinePipeline, error) {
	nr, err := NewPipelineNRCtx(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Disable {
		return singlePlan(nr), nil
	}
	o := &OnlinePipeline{nr: nr, buildDone: make(chan struct{}), fbWindow: defaultMispickWindow}
	bctx, cancel := context.WithCancel(ctx)
	if cfg.PreprocessBudget > 0 {
		bctx, cancel = context.WithTimeout(ctx, cfg.PreprocessBudget)
	}
	go func() {
		defer close(o.buildDone)
		defer cancel()
		var tr *obs.Trace
		if ring != nil {
			tr = obs.NewTrace("build_reordered")
			bctx = obs.WithTrace(bctx, tr)
		}
		var rr *Pipeline
		// Guard the whole build: stage-internal panics already surface
		// as errors, and this converts any residual glue-code panic too
		// — a background goroutine must never crash the process.
		err := par.Guard(func() error {
			var err error
			rr, err = NewPipelineCtx(bctx, m, cfg)
			return err
		})
		if err != nil {
			o.degraded.Store(&degradeReason{err: err})
			o.winner.Store(o.nr)
			onlineDegraded.Inc()
			if tr != nil {
				tr.Annotate("outcome", "degraded")
				tr.Finish(err)
				ring.Push(tr)
			}
			return
		}
		o.rr.Store(rr)
		if tr != nil {
			tr.Annotate("outcome", "ok")
			tr.Annotate("stages", rr.PlanStages().String())
			tr.Finish(nil)
			ring.Push(tr)
		}
	}()
	return o, nil
}

// Decided reports whether the pipeline has settled on a plan, and if so
// whether reordering won. Settling happens through the first-iteration
// trial or — for budgeted pipelines — by degrading to the no-reorder
// plan (in which case reorderingWon is false; see Degraded for why).
func (o *OnlinePipeline) Decided() (done, reorderingWon bool) {
	w := o.winner.Load()
	return w != nil, w != nil && w == o.rr.Load()
}

// Degraded reports whether the reordered build was abandoned — budget
// exceeded, context cancelled, build error, or build panic — and the
// error that caused it. A degraded pipeline serves the no-reorder plan
// permanently.
func (o *OnlinePipeline) Degraded() (bool, error) {
	if d := o.degraded.Load(); d != nil {
		return true, d.err
	}
	return false, nil
}

// WaitPreprocessed blocks until the background reordered build has
// finished (successfully or by degrading) or ctx is cancelled. It
// returns ctx's error in the latter case and nil otherwise; check
// Degraded for the build's outcome. Pipelines built with
// NewOnlinePipeline return immediately.
func (o *OnlinePipeline) WaitPreprocessed(ctx context.Context) error {
	select {
	case <-o.buildDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrialTimes returns the wall times measured in the deciding iteration.
//
// Pre-decision contract: until Decided reports done, TrialTimes returns
// (0, 0) immediately — it is guarded by the decided flag and never
// blocks on the decision lock, which an in-flight trial holds for the
// full duration of four kernel executions. A degraded pipeline, and one
// whose reordered plan applied no round, returns zeros forever: no
// trial ever runs. Poll Decided (or WaitPreprocessed plus one serving
// call) before treating the times as meaningful.
func (o *OnlinePipeline) TrialTimes() (reordered, plain time.Duration) {
	if o.winner.Load() == nil {
		return 0, 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rrTime, o.nrTime
}

// Pipeline returns the winning pipeline once decided (nil before).
func (o *OnlinePipeline) Pipeline() *Pipeline { return o.winner.Load() }

// Matrix returns the original (unreordered) matrix.
func (o *OnlinePipeline) Matrix() *Matrix { return o.nr.Matrix() }

// Preprocessed reports, without blocking, whether the background
// reordered build has finished (successfully or by degrading) — the
// readiness signal a /readyz probe wants: once true, every serving
// decision the pipeline will ever make is already cheap.
func (o *OnlinePipeline) Preprocessed() bool {
	select {
	case <-o.buildDone:
		return true
	default:
		return false
	}
}

// current returns the plan a call arriving now executes on: the winner
// once decided, else the reordered plan once built (the call runs the
// trial on it), else the no-reorder plan.
func (o *OnlinePipeline) current() *Pipeline {
	if w := o.winner.Load(); w != nil {
		return w
	}
	if rr := o.rr.Load(); rr != nil {
		return rr
	}
	return o.nr
}

// PlanStages returns the preprocessing stage breakdown of the plan a
// call arriving now would execute on: the winner's once decided, else
// the reordered plan's when its build has landed, else the no-reorder
// plan's.
func (o *OnlinePipeline) PlanStages() StageTimings { return o.current().PlanStages() }

// Kernel returns the SpMM kernel of the plan a call arriving now would
// execute on (winner, else built reordered plan, else the no-reorder
// plan), resolving the same way as PlanStages.
func (o *OnlinePipeline) Kernel() Kernel { return o.current().Kernel() }

// SpMMIntoCtx computes Y = S·X into y with cooperative cancellation
// between kernel chunks and panic isolation. The first call with both
// plans ready runs the trial and keeps the faster plan; later calls use
// the winner lock-free and allocation-free. While the reordered plan is
// still building in the background, calls serve the no-reorder plan
// immediately. A call cancelled mid-trial returns ctx's error without
// publishing a winner; a later call re-runs the trial.
func (o *OnlinePipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	start := time.Now()
	decided, err := o.dispatch(x.Cols, y.Data, func(p *Pipeline, dst []float32) error {
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
// matrix's sparsity structure, with the same first-call trial, the same
// lock-free decided path, and the same serve-NR-while-building
// behaviour as SpMMIntoCtx.
func (o *OnlinePipeline) SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error {
	_, err := o.dispatch(x.Cols, out.Val, func(p *Pipeline, dst []float32) error {
		if dst == nil {
			return p.SDDMMIntoCtx(ctx, out, x, y)
		}
		view := *out
		view.Val = dst
		return p.SDDMMIntoCtx(ctx, &view, x, y)
	})
	return err
}

// dispatch routes one call: a decided pipeline runs the winner, a
// pipeline whose reordered plan is still building runs the no-reorder
// plan, and otherwise the call runs the §4 trial. run executes the call
// on plan p, into the caller's output (whose values are out) when dst is
// nil and otherwise into dst, a scratch buffer of len(out). decided
// reports whether the winner served the call.
func (o *OnlinePipeline) dispatch(k int, out []float32, run func(p *Pipeline, dst []float32) error) (decided bool, err error) {
	if w := o.winner.Load(); w != nil {
		return true, run(w, nil)
	}
	if rr := o.rr.Load(); rr != nil {
		return false, o.trial(rr, k, out, run)
	}
	// Reordered plan not ready: serve the no-reorder plan now rather
	// than blocking the caller on preprocessing.
	return false, run(o.nr, nil)
}

// trial runs the §4 trial under the decision lock: warm-up both plans
// untimed (so neither eats the cold-cache penalty the other is measured
// without), then time one run of each, and publish the winner. Both
// plans run into pooled scratch and the winner's result is copied into
// the caller's output, so the loser's discarded output is never what
// the caller observes. Any error — including ctx's cancellation
// mid-flight — aborts the trial without publishing a winner. When the
// reordered plan applied no round there is nothing to decide: NR is
// published with zero times before the call runs once.
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
	t0 := time.Now()
	if err := run(rr, dstRR); err != nil {
		return err
	}
	rrTime := time.Since(t0)
	t0 = time.Now()
	if err := run(o.nr, dstNR); err != nil {
		return err
	}
	nrTime := time.Since(t0)
	if o.decide(rr, rrTime, nrTime, k) == rr {
		copy(out, dstRR)
	} else {
		copy(out, dstNR)
	}
	return nil
}

// reskin re-skins this online pipeline for a matrix with the *same
// sparsity structure* but new nonzero values — the value-only mutation
// path of a live matrix. Each plan it serves is re-skinned by one
// O(nnz) value walk (Pipeline.withValues) that shares every structure
// array: no plan-cache lookup, no preprocessing, and the plans — and
// the configurations they were built under — stay exactly the ones the
// trial measured.
//
// The trial decision carries over: structure is what the §4 trial
// measures, and the structure has not changed, so if the old pipeline
// had settled on (say) the reordered plan the new one starts settled on
// its reskinned counterpart — no re-trial, no window where serving
// would flap back to NR. A pipeline with no reordered plan (degraded or
// single-plan) reskins to one decided on its re-skinned NR plan, keeping
// the recorded cause or the fingerprint. A pipeline whose background
// build is still in flight is waited for first: reskinning a moving
// target would race the build's publication.
func (o *OnlinePipeline) reskin(ctx context.Context, m *Matrix) (*OnlinePipeline, error) {
	if err := o.WaitPreprocessed(ctx); err != nil {
		return nil, err
	}
	nr, err := o.nr.withValues(m)
	if err != nil {
		return nil, err
	}
	n := &OnlinePipeline{nr: nr, buildDone: closedChan, fbWindow: o.fbWindow}
	n.sink.Store(o.sink.Load())
	n.mispicks.Store(o.mispicks.Load())
	oldRR := o.rr.Load()
	if oldRR == nil {
		// Degraded or single-plan: the re-skinned NR plan serves, decided.
		if d := o.degraded.Load(); d != nil {
			n.degraded.Store(d)
		}
		n.planFP = o.planFP
		n.winner.Store(nr)
		return n, nil
	}
	rr, err := oldRR.withValues(m)
	if err != nil {
		return nil, err
	}
	n.rr.Store(rr)
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
	if o.fbWindow <= 0 {
		return
	}
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

// PlanFingerprint returns the plan-cache fingerprint of the winning
// plan once the trial has decided ("" before, and "" for a degraded
// pipeline — no trial ever measured its plan). A single-plan pipeline
// (Config.Disable) returns its one plan's key from construction.
func (o *OnlinePipeline) PlanFingerprint() string {
	if o.winner.Load() == nil {
		return ""
	}
	return o.planFP
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

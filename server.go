package repro

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ErrOverloaded is the sentinel matched (with errors.Is) by every
// load-shedding rejection from a Server: the in-flight capacity was
// exhausted and the wait queue was full. The concrete error is an
// *OverloadError carrying the queue-depth statistics at rejection time.
var ErrOverloaded = serve.ErrOverloaded

// OverloadError is the typed load-shedding error (see ErrOverloaded);
// test with errors.As to read the queue-depth fields.
type OverloadError = serve.Overload

// ErrServerClosed is returned for requests arriving after Close.
var ErrServerClosed = errors.New("repro: server closed")

// ErrUnknownTenant is wrapped by tenant-routed calls naming an id that
// was never registered. Test with errors.Is.
var ErrUnknownTenant = errors.New("repro: unknown tenant")

// ErrTenantExists is wrapped by AddTenant when the id is already
// registered. Test with errors.Is.
var ErrTenantExists = errors.New("repro: tenant already registered")

// DefaultTenant is the id under which NewServer's matrix is served;
// SpMMInto, SDDMMInto and Mutate route here.
const DefaultTenant = "default"

// AdmissionStats reports the Server's admission-gate counters.
type AdmissionStats = serve.AdmissionStats

// BreakerStats reports the Server's circuit-breaker counters.
type BreakerStats = serve.BreakerStats

// ServerConfig tunes the resilience layer around an online pipeline.
// The zero value gets sensible serving defaults (see each field).
type ServerConfig struct {
	// MaxInFlight bounds concurrently executing work, in weight units:
	// each request weighs its dense-operand column count (min 1), so a
	// K=512 SpMM counts 512 units — admission tracks *work*, not call
	// count, and many small requests can share the gate one huge one
	// would fill. Default 4096.
	MaxInFlight int64
	// MaxQueue bounds the FIFO wait queue behind the gate. Requests
	// beyond it are shed immediately with ErrOverloaded instead of
	// piling up goroutines. Default 128; negative means shed whenever
	// the gate is saturated.
	MaxQueue int
	// DefaultDeadline is applied to requests whose context carries no
	// deadline (0 = never impose one). Queued requests whose deadline
	// expires leave the queue with context.DeadlineExceeded.
	DefaultDeadline time.Duration
	// MaxAttempts bounds tries per request for transient failures
	// (fault-injected errors and recovered panics). Default 3.
	MaxAttempts int
	// RetryBase scales the full-jitter exponential backoff between
	// attempts, which is capped at retryMax. Default 500µs.
	RetryBase time.Duration
	// BreakerThreshold trips the reordered-path circuit breaker after
	// this many consecutive failures. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker routes traffic to
	// the no-reorder fallback before admitting a half-open probe.
	// Default 100ms.
	BreakerCooldown time.Duration
	// PlanDir, when set, attaches the plan cache's disk tier for a
	// warm start (previously snapshotted plans are applied in O(nnz)
	// instead of re-running LSH/clustering) and Close snapshots the
	// cache back to it.
	PlanDir string
	// CoalesceWindow, when positive, batches concurrent SpMM requests
	// against the same tenant matrix. A request reaching an idle tenant
	// runs at once; requests arriving while one of its passes runs
	// gather into one pending batch that launches when that pass
	// returns, column-stacked into ONE kernel pass at the combined width
	// (the K-scaling effect: the sparse structure is traversed once for
	// the whole batch). The window caps how long a pending batch waits
	// for a running pass; it adds no wait to an idle tenant. Each waiter
	// keeps its own context, deadline, and admission accounting. 0
	// disables coalescing.
	CoalesceWindow time.Duration
	// CoalesceMaxOps caps operands per coalesced batch; a full pending
	// batch launches at once, beside the running pass. Default 16.
	CoalesceMaxOps int
	// ShardNNZ, when positive, row-panel-shards any tenant matrix with
	// more than this many nonzeros: the matrix splits into nnz-balanced
	// panels of ~ShardNNZ nonzeros, each preprocessed and served
	// through its own online pipeline (plan cache shared), with SpMM
	// panels writing disjoint row ranges of the output concurrently.
	// Each panel has its own reorder gate and §4 trial; a request that
	// runs any panel's reordered plan consults the reordered-path
	// circuit breaker, whose fallback runs every panel's no-reorder
	// plan. 0 disables sharding.
	ShardNNZ int
	// VerifyFraction enables sampled shadow verification: this fraction
	// of served SpMM/SDDMM requests (per tenant) is recomputed on a
	// random subset of output rows with the reference row-wise kernel
	// against the original, unpermuted matrix and compared under a
	// reassociation-aware tolerance. A confirmed mismatch quarantines
	// the tenant's plans: they are evicted from both plan-cache tiers,
	// traffic routes to the reference fallback, a background rebuild is
	// kicked, and the tenant reinstates only after ProbationRequests
	// fully-verified requests pass clean. 0 (the default) disables
	// sampling; 1.0 verifies every request. The unsampled path costs
	// two atomic operations and zero allocations per request.
	VerifyFraction float64
	// VerifyRows is how many output rows each sampled verification
	// recomputes. Default 8; negative verifies every row.
	VerifyRows int
	// ProbationRequests is the number of consecutively verified clean
	// requests required to reinstate a quarantined tenant after its
	// rebuild lands. Default 32.
	ProbationRequests int
	// SLOTarget is the per-request latency objective the per-tenant SLO
	// watchdog scores requests against: a request is a violation when it
	// fails or takes longer than the target. 0 (the default) scores
	// failures only — the rolling p50/p99 gauges stay live either way.
	SLOTarget time.Duration
	// EventRing bounds the structured decision-event ring served at
	// /debug/events (trial winners, plan swaps, breaker transitions,
	// quarantines, mispicks, SLO burns; most recent first). Default 256.
	EventRing int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Microsecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	if c.CoalesceMaxOps <= 0 {
		c.CoalesceMaxOps = 16
	}
	if c.VerifyRows == 0 {
		c.VerifyRows = 8
	}
	if c.ProbationRequests <= 0 {
		c.ProbationRequests = 32
	}
	if c.EventRing <= 0 {
		c.EventRing = 256
	}
	return c
}

// Fixed serving constants: the cap on the retry backoff between
// attempts, the per-request trace ring served at /debug/traces, and the
// rolling request window (sample count) the SLO watchdog computes
// quantiles and error-budget burn over.
const (
	retryMax      = 20 * time.Millisecond
	traceRingSize = 256
	sloWindowSize = 128
)

// sloBudget is the error budget the burn rate normalises against: 1%
// of the requests in the window may violate the objective before the
// budget is burning (rate > 1).
const sloBudget = 0.01

// sloWindow is one tenant's rolling latency and error-budget ledger: a
// fixed ring of the last sloWindowSize request latencies and violation
// flags. record is allocation-free (mutex plus ring writes); quantiles
// sort only at scrape time.
type sloWindow struct {
	target time.Duration

	mu         sync.Mutex
	lat        []float64 // latency ring, seconds
	bad        []bool    // violation ring, parallel to lat
	next, n    int
	badN       int // violations currently inside the window
	burning    bool
	violations int64 // violations ever (monotone)
}

func newSLOWindow(target time.Duration, window int) *sloWindow {
	if window < 1 {
		window = 1
	}
	return &sloWindow{target: target, lat: make([]float64, window), bad: make([]bool, window)}
}

// record folds one finished request into the window and reports
// whether it pushed the error budget into burning (burn rate crossing
// 1) along with the rate at that moment — the edge the SLO burn event
// is emitted on.
func (w *sloWindow) record(d time.Duration, failed bool) (burnStart bool, rate float64) {
	viol := failed || (w.target > 0 && d > w.target)
	w.mu.Lock()
	if w.bad[w.next] {
		w.badN--
	}
	w.lat[w.next] = d.Seconds()
	w.bad[w.next] = viol
	if w.next++; w.next == len(w.lat) {
		w.next = 0
	}
	if w.n < len(w.lat) {
		w.n++
	}
	if viol {
		w.badN++
		w.violations++
	}
	rate = float64(w.badN) / float64(w.n) / sloBudget
	if rate > 1 {
		if !w.burning {
			w.burning = true
			burnStart = true
		}
	} else {
		w.burning = false
	}
	w.mu.Unlock()
	return burnStart, rate
}

// quantile returns the q-quantile (nearest rank) of the window's
// latencies in seconds; 0 before any request. Scrape-time only: it
// copies and sorts the window.
func (w *sloWindow) quantile(q float64) float64 {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return 0
	}
	s := make([]float64, w.n)
	copy(s, w.lat[:w.n])
	w.mu.Unlock()
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func (w *sloWindow) burnRate() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0
	}
	return float64(w.badN) / float64(w.n) / sloBudget
}

func (w *sloWindow) violationTotal() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.violations
}

// SLOStatus is one tenant's SLO watchdog snapshot (Server.Explain).
type SLOStatus struct {
	TargetSeconds float64 `json:"target_seconds"`
	P50Seconds    float64 `json:"p50_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	BurnRate      float64 `json:"burn_rate"`
	Violations    int64   `json:"violations_total"`
	Burning       bool    `json:"burning"`
}

func (w *sloWindow) status() SLOStatus {
	st := SLOStatus{
		TargetSeconds: w.target.Seconds(),
		P50Seconds:    w.quantile(0.50),
		P99Seconds:    w.quantile(0.99),
	}
	w.mu.Lock()
	if w.n > 0 {
		st.BurnRate = float64(w.badN) / float64(w.n) / sloBudget
	}
	st.Violations = w.violations
	st.Burning = w.burning
	w.mu.Unlock()
	return st
}

// ServerStats is a point-in-time snapshot of every resilience counter;
// the fields reconcile exactly with client-observed outcomes (each
// request ends in exactly one of Completed, Failed, Cancelled, a
// shed/expired admission outcome, or ErrServerClosed):
//
//	Admission.Admitted == Completed + Failed + Cancelled
type ServerStats struct {
	Admission AdmissionStats
	Breaker   BreakerStats
	// Completed counts requests that returned a result; Cancelled
	// counts admitted requests that ended with their context's error;
	// Failed counts every other admitted request whose final attempt
	// still errored. Each sums the tenants' ledgers (TenantStats).
	Completed, Failed, Cancelled int64
	// Retries counts re-attempts after transient failures (attempts
	// beyond each request's first).
	Retries int64
	// Fallbacks counts attempts routed to the no-reorder pipeline
	// because the breaker rejected the reordered path; it equals the
	// breaker's Rejected counter.
	Fallbacks int64
	// Degraded reports whether a background reordered build of the
	// default tenant's base was abandoned (see OnlinePipeline.Degraded).
	Degraded bool
}

// servingUnit is the one execution contract every pipeline implements:
// a tenant's live pipeline serves its base rows through a
// ShardedPipeline — nnz-balanced row panels, one for an unsharded
// tenant, each an OnlinePipeline (the §4 trial between reordered and
// plain execution) whose no-reorder Pipeline is the breaker fallback. Batched
// SpMM needs nothing more: kernels.SpMMBatchIntoCtx runs one SpMMIntoCtx
// at the combined width. SpMMIntoCtx's y must not share storage with x:
// the kernels write output rows while they still read operand rows, and
// Pipeline rejects such a call with an error.
type servingUnit interface {
	SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error
	SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error
}

var (
	_ servingUnit = (*Pipeline)(nil)
	_ servingUnit = (*OnlinePipeline)(nil)
	_ servingUnit = (*ShardedPipeline)(nil)
	_ servingUnit = (*LivePipeline)(nil)
)

// tenant is one served matrix: its live (mutable) pipeline, admission
// weight, optional request coalescer, and per-outcome counters. Every
// tenant serves through a LivePipeline, so every tenant is mutable
// (Server.MutateTenant).
type tenant struct {
	id     string
	weight int64
	live   *LivePipeline
	coal   *serve.Coalescer[BatchOp]
	integ  *integrity.Monitor
	slo    *sloWindow

	admitted  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	shed      *obs.Counter
	expired   *obs.Counter
}

// TenantStats is one tenant's outcome counters. Every request the
// tenant ever saw lands in exactly one terminal counter, so the
// numbers reconcile exactly:
//
//	Admitted  == Completed + Failed + Cancelled
//	submitted == Admitted + Shed + Expired
//
// Cancelled counts admitted requests that ended with their context's
// error (deadline or cancellation, including waiters excised from a
// coalescing batch pre-launch); Failed counts every other admitted
// error; Shed counts overload rejections; Expired counts requests that
// left before admission (queue deadline, pre-queue context death, or
// gate shutdown).
type TenantStats struct {
	ID      string
	Weight  int64
	Sharded bool
	Panels  int // row panels when sharded, else 0

	Admitted  int64
	Completed int64
	Failed    int64
	Cancelled int64
	Shed      int64
	Expired   int64

	// Coalesce reports the tenant's request-coalescing counters (all
	// zero when CoalesceWindow is off).
	Coalesce serve.CoalescerStats

	// Live reports the tenant's mutation counters (see LiveStats for
	// the reconciliation identities).
	Live LiveStats

	// Integrity reports the tenant's shadow-verification and
	// quarantine ledgers (see integrity.Stats for the reconciliation
	// identities; all zero with VerifyFraction off and no mismatches).
	Integrity integrity.Stats
}

func (t *tenant) stats() TenantStats {
	sharded := t.live.Sharded()
	ts := TenantStats{
		ID: t.id, Weight: t.weight, Sharded: sharded != nil,
		Admitted: t.admitted.Value(), Completed: t.completed.Value(),
		Failed: t.failed.Value(), Cancelled: t.cancelled.Value(),
		Shed: t.shed.Value(), Expired: t.expired.Value(),
		Live: t.live.Stats(), Integrity: t.integ.Stats(),
	}
	if sharded != nil {
		ts.Panels = sharded.Panels()
	}
	if t.coal != nil {
		ts.Coalesce = t.coal.Stats()
	}
	return ts
}

// Server wraps an OnlinePipeline with the three layers a production
// deployment hits before any kernel runs (DESIGN.md §10):
//
//  1. admission control — a weighted semaphore with a bounded FIFO
//     wait queue and per-request deadlines; overload sheds with a
//     typed ErrOverloaded instead of letting goroutines pile up;
//  2. retry with exponential backoff + jitter for transient errors
//     (fault-injected failures, recovered worker panics), and a
//     circuit breaker on the reordered execution path that trips
//     after consecutive failures, routes traffic to the no-reorder
//     fallback, and half-opens to probe recovery — composing with the
//     pipeline's Degraded machinery (a degraded pipeline serves the
//     fallback without consulting the breaker);
//  3. durable plan persistence — with PlanDir set, construction warm
//     starts from snapshotted plans and Close snapshots the cache.
//
// A Server is safe for concurrent use; Close drains in-flight
// requests and is idempotent.
type Server struct {
	adm     *serve.Admission
	brk     *serve.Breaker
	cfg     ServerConfig
	cancel  context.CancelFunc
	baseCtx context.Context // server lifecycle: coalesced batches run under it

	// tmu guards the tenant registry; def is the DefaultTenant entry
	// (also in the map) and is immutable after construction.
	tmu     sync.RWMutex
	tenants map[string]*tenant
	def     *tenant

	// reg holds this Server's metric families; every counter Stats
	// reads is a registry object, so /metrics and Stats can never
	// disagree. traces is the /debug/traces ring; events is the
	// structured decision-event ring behind /debug/events.
	reg    *obs.Registry
	traces *obs.TraceRing
	events *obs.EventRing

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	retries   *obs.Counter
	fallbacks *obs.Counter

	reqSpMMInto  *obs.Histogram
	reqSDDMMInto *obs.Histogram
}

// NewServer builds a serving-grade front end over m: the no-reorder
// plan (or, past scfg.ShardNNZ, each row panel's) is built
// synchronously (its error is the constructor's error), and a reordered
// plan builds in the background under ctx and cfg.PreprocessBudget
// only once a request passes its reorder gate, exactly as
// NewOnlinePipelineCtx; each build's "build_reordered" trace lands in
// /debug/traces. With scfg.PlanDir set, the plan cache's disk tier is
// attached first, so both builds warm start from snapshots left by a
// previous process.
func NewServer(ctx context.Context, m *Matrix, cfg Config, scfg ServerConfig) (*Server, error) {
	scfg = scfg.withDefaults()
	if scfg.PlanDir != "" {
		if err := SetPlanCacheDir(scfg.PlanDir); err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	traces := obs.NewTraceRing(traceRingSize)
	sctx, cancel := context.WithCancel(ctx)
	s := &Server{
		adm:     serve.NewAdmissionObs(scfg.MaxInFlight, scfg.MaxQueue, reg),
		brk:     serve.NewBreakerObs(scfg.BreakerThreshold, scfg.BreakerCooldown, reg),
		cfg:     scfg,
		cancel:  cancel,
		baseCtx: sctx,
		tenants: map[string]*tenant{},
		reg:     reg,
		traces:  traces,
		events:  obs.NewEventRing(scfg.EventRing),
	}
	// Every breaker state change lands in the event ring, so the
	// trips/half-opens/closes counters reconcile against a replayable
	// ledger (the hook fires under the breaker lock, exactly once per
	// transition).
	s.brk.OnTransition(func(from, to serve.BreakerState) {
		s.events.Emit(obs.Event{
			Type:   obs.EventBreakerTransition,
			Detail: from.String() + "->" + to.String(),
		})
	})
	target := s.shardTarget(m)
	base, err := newShardedPipeline(sctx, sctx, m, cfg, target, traces)
	if err != nil {
		cancel()
		return nil, err
	}
	s.def = s.newTenant(DefaultTenant, 1, base, target)
	s.tenants[DefaultTenant] = s.def
	reg.CounterFunc("spmmrr_server_completed_total", "Requests that returned a result.",
		func() int64 { return s.Stats().Completed })
	reg.CounterFunc("spmmrr_server_failed_total",
		"Admitted requests whose final attempt still errored with other than their context's error.",
		func() int64 { return s.Stats().Failed })
	s.retries = reg.Counter("spmmrr_server_retries_total",
		"Re-attempts after transient failures (attempts beyond each request's first).")
	s.fallbacks = reg.Counter("spmmrr_server_fallbacks_total",
		"Attempts routed to the no-reorder pipeline by the circuit breaker.")
	reqHelp := "End-to-end request latency through the resilience stack, by operation."
	s.reqSpMMInto = reg.Histogram("spmmrr_server_request_seconds", reqHelp,
		obs.LatencyBuckets(), obs.L("op", "spmm_into"))
	s.reqSDDMMInto = reg.Histogram("spmmrr_server_request_seconds", reqHelp,
		obs.LatencyBuckets(), obs.L("op", "sddmm_into"))
	reg.GaugeFunc("spmmrr_server_degraded",
		"1 when a background reordered build of the default tenant was abandoned, else 0.",
		func() float64 {
			if s.Stats().Degraded {
				return 1
			}
			return 0
		})
	// The plan cache is process-wide and swappable (SetPlanCacheCapacity
	// installs a new one), so its numbers are collected at scrape time
	// through the current cache's Stats rather than bound to counters.
	cacheHelp := "Plan-cache lookups served, by tier."
	reg.CounterFunc("spmmrr_plancache_hits_total", cacheHelp,
		func() int64 { return PlanCacheStats().Hits }, obs.L("tier", "memory"))
	reg.CounterFunc("spmmrr_plancache_hits_total", cacheHelp,
		func() int64 { return PlanCacheStats().DiskHits }, obs.L("tier", "disk"))
	missHelp := "Plan-cache lookups that missed, by tier."
	reg.CounterFunc("spmmrr_plancache_misses_total", missHelp,
		func() int64 { return PlanCacheStats().Misses }, obs.L("tier", "memory"))
	reg.CounterFunc("spmmrr_plancache_misses_total", missHelp,
		func() int64 { return PlanCacheStats().DiskMisses }, obs.L("tier", "disk"))
	reg.CounterFunc("spmmrr_plancache_evictions_total",
		"Plans evicted from the in-memory LRU.",
		func() int64 { return PlanCacheStats().Evictions })
	reg.GaugeFunc("spmmrr_plancache_entries",
		"Plans currently held in the in-memory tier.",
		func() float64 { return float64(PlanCacheStats().Entries) })
	return s, nil
}

// newTenant wires one tenant: its LivePipeline (every tenant serves
// through one, so every tenant is mutable; background rebuilds run
// under the server lifecycle and trace into the server ring), outcome
// counters in the Server registry (labelled by tenant id), the request
// coalescer when CoalesceWindow is on, and mirror counters so /metrics
// carries per-tenant coalesce and live-mutation families.
func (s *Server) newTenant(id string, weight int64, base *ShardedPipeline, shardNNZ int) *tenant {
	if weight < 1 {
		weight = 1
	}
	live := newLive(s.baseCtx, base, shardNNZ, shardNNZ > 0, LiveConfig{})
	live.setEventSink(s.events, id)
	t := &tenant{id: id, weight: weight, live: live,
		integ: integrity.NewMonitor(s.cfg.VerifyFraction, s.cfg.ProbationRequests),
		slo:   newSLOWindow(s.cfg.SLOTarget, sloWindowSize)}
	// Reinstatements are rare control-plane transitions; ledger them in
	// the event ring so the soak's event/metric reconciliation can
	// account for every one.
	t.integ.OnReinstate(func() {
		s.events.Emit(obs.Event{Type: obs.EventReinstate, Tenant: id, Epoch: live.Epoch()})
	})
	t.admitted = s.reg.Counter("spmmrr_tenant_admitted_total",
		"Tenant requests admitted through the gate.", obs.L("tenant", id))
	help := "Tenant requests by terminal outcome."
	t.completed = s.reg.Counter("spmmrr_tenant_requests_total", help,
		obs.L("tenant", id), obs.L("outcome", "completed"))
	t.failed = s.reg.Counter("spmmrr_tenant_requests_total", help,
		obs.L("tenant", id), obs.L("outcome", "failed"))
	t.cancelled = s.reg.Counter("spmmrr_tenant_requests_total", help,
		obs.L("tenant", id), obs.L("outcome", "cancelled"))
	t.shed = s.reg.Counter("spmmrr_tenant_requests_total", help,
		obs.L("tenant", id), obs.L("outcome", "shed"))
	t.expired = s.reg.Counter("spmmrr_tenant_requests_total", help,
		obs.L("tenant", id), obs.L("outcome", "expired"))
	if s.cfg.CoalesceWindow > 0 {
		t.coal = serve.NewCoalescer(s.cfg.CoalesceWindow, s.cfg.CoalesceMaxOps,
			func(ops []BatchOp) error {
				// The batched pass runs under the server's lifecycle
				// context: a waiter's deadline governs how long it waits,
				// never a pass that other waiters' operands share. Close
				// cancels baseCtx only after the gate has drained.
				return kernels.SpMMBatchIntoCtx(s.baseCtx, live.batchPass(ops), ops)
			})
		// Launch-time gate: a mutation landing between submit and launch
		// excises the now-stale operand (ErrStaleShape) instead of
		// failing — or torn-writing — the batch it joined.
		t.coal.SetValidate(live.validateBatchOp)
		s.reg.CounterFunc("spmmrr_coalesce_batches_total",
			"Coalescing batches opened (an idle launch or a pending batch's first arrival).",
			func() int64 { return t.coal.Stats().Leads }, obs.L("tenant", id))
		s.reg.CounterFunc("spmmrr_coalesce_joins_total",
			"Requests that joined an already-open coalescing batch.",
			func() int64 { return t.coal.Stats().Joins }, obs.L("tenant", id))
		s.reg.CounterFunc("spmmrr_coalesce_excised_total",
			"Waiters excised from a batch pre-launch by context expiry.",
			func() int64 { return t.coal.Stats().Excised }, obs.L("tenant", id))
		s.reg.CounterFunc("spmmrr_coalesce_invalid_total",
			"Operands excised at batch launch by the live-shape gate.",
			func() int64 { return t.coal.Stats().Invalid }, obs.L("tenant", id))
	}
	s.reg.CounterFunc("spmmrr_live_mutations_total",
		"Live-matrix mutation batches applied.",
		func() int64 { return live.Stats().Mutations }, obs.L("tenant", id))
	rowHelp := "Live-matrix rows mutated, by operation."
	s.reg.CounterFunc("spmmrr_live_rows_mutated_total", rowHelp,
		func() int64 { return live.Stats().RowsReplaced }, obs.L("tenant", id), obs.L("op", "replace"))
	s.reg.CounterFunc("spmmrr_live_rows_mutated_total", rowHelp,
		func() int64 { return live.Stats().RowsAppended }, obs.L("tenant", id), obs.L("op", "append"))
	s.reg.CounterFunc("spmmrr_live_rows_mutated_total", rowHelp,
		func() int64 { return live.Stats().RowsDeleted }, obs.L("tenant", id), obs.L("op", "delete"))
	s.reg.CounterFunc("spmmrr_live_value_updates_total",
		"Individual nonzeros rewritten in place by live mutations.",
		func() int64 { return live.Stats().ValueUpdates }, obs.L("tenant", id))
	s.reg.CounterFunc("spmmrr_live_reskins_total",
		"Value-only O(nnz) base re-skins published.",
		func() int64 { return live.Stats().Reskins }, obs.L("tenant", id))
	mutHelp := "Wall time of published live-matrix mutations, by path (value re-skin or overlay)."
	live.mutateReskin = s.reg.Histogram("spmmrr_live_mutate_seconds", mutHelp,
		obs.LatencyBuckets(), obs.L("tenant", id), obs.L("kind", "reskin"))
	live.mutateOverlay = s.reg.Histogram("spmmrr_live_mutate_seconds", mutHelp,
		obs.LatencyBuckets(), obs.L("tenant", id), obs.L("kind", "overlay"))
	s.reg.CounterFunc("spmmrr_live_swaps_total",
		"Rebuilt bases atomically swapped into serving.",
		func() int64 { return live.Stats().Swaps }, obs.L("tenant", id))
	rbHelp := "Live-matrix background rebuild attempts, by outcome."
	s.reg.CounterFunc("spmmrr_live_rebuilds_total", rbHelp,
		func() int64 { return live.Stats().RebuildsStarted }, obs.L("tenant", id), obs.L("outcome", "started"))
	s.reg.CounterFunc("spmmrr_live_rebuilds_total", rbHelp,
		func() int64 { return live.Stats().RebuildsFailed }, obs.L("tenant", id), obs.L("outcome", "failed"))
	s.reg.CounterFunc("spmmrr_live_rebuilds_total", rbHelp,
		func() int64 { return live.Stats().RebuildsCancelled }, obs.L("tenant", id), obs.L("outcome", "cancelled"))
	s.reg.GaugeFunc("spmmrr_live_overlay_rows",
		"Rows currently served through the mutation overlay.",
		func() float64 { return float64(live.Stats().OverlayRows + live.Stats().TailRows) }, obs.L("tenant", id))
	s.reg.GaugeFunc("spmmrr_live_overlay_nnz",
		"Nonzeros currently served through the mutation overlay.",
		func() float64 { return float64(live.Stats().OverlayNNZ) }, obs.L("tenant", id))
	s.reg.GaugeFunc("spmmrr_live_staleness_seconds",
		"Age of the oldest mutation not yet folded into a rebuilt base.",
		func() float64 { return live.Stats().StalenessSeconds }, obs.L("tenant", id))
	s.reg.GaugeFunc("spmmrr_live_epoch",
		"Publish generation of the live matrix (mutations + swaps).",
		func() float64 { return float64(live.Stats().Epoch) }, obs.L("tenant", id))
	s.reg.GaugeFunc("spmmrr_live_degraded",
		"1 when background rebuilds were permanently abandoned (overlay-forever serving), else 0.",
		func() float64 {
			if d, _ := live.Degraded(); d {
				return 1
			}
			return 0
		}, obs.L("tenant", id))
	// Integrity families are registered unconditionally (all zero with
	// VerifyFraction off), so dashboards and the scrape test see a
	// stable exposition regardless of configuration.
	checkHelp := "Shadow-verification checks, by outcome."
	s.reg.CounterFunc("spmmrr_integrity_checks_total", checkHelp,
		func() int64 { return t.integ.Stats().ChecksClean }, obs.L("tenant", id), obs.L("outcome", "clean"))
	s.reg.CounterFunc("spmmrr_integrity_checks_total", checkHelp,
		func() int64 { return t.integ.Stats().ChecksMismatch }, obs.L("tenant", id), obs.L("outcome", "mismatch"))
	s.reg.CounterFunc("spmmrr_integrity_checks_total", checkHelp,
		func() int64 { return t.integ.Stats().ChecksSkipped }, obs.L("tenant", id), obs.L("outcome", "skipped"))
	s.reg.CounterFunc("spmmrr_integrity_quarantines_total",
		"Quarantine episodes opened by confirmed verification mismatches.",
		func() int64 { return t.integ.Stats().Quarantines }, obs.L("tenant", id))
	s.reg.CounterFunc("spmmrr_integrity_reinstated_total",
		"Quarantined tenants reinstated after a clean probation window.",
		func() int64 { return t.integ.Stats().Reinstated }, obs.L("tenant", id))
	s.reg.CounterFunc("spmmrr_integrity_probation_failures_total",
		"Probation windows failed by a repeat mismatch (back to quarantine).",
		func() int64 { return t.integ.Stats().ProbationFailures }, obs.L("tenant", id))
	s.reg.GaugeFunc("spmmrr_integrity_quarantined",
		"1 while the tenant is quarantined or on probation, else 0.",
		func() float64 { return float64(t.integ.Stats().StillQuarantined) }, obs.L("tenant", id))
	// SLO watchdog families: rolling quantiles and error-budget burn
	// over the last sloWindowSize requests. Registered unconditionally
	// (with SLOTarget unset only failures count as violations) so the
	// exposition is stable across configurations.
	s.reg.GaugeFunc("spmmrr_slo_p50_seconds",
		"Rolling median request latency over the SLO window.",
		func() float64 { return t.slo.quantile(0.50) }, obs.L("tenant", id))
	s.reg.GaugeFunc("spmmrr_slo_p99_seconds",
		"Rolling p99 request latency over the SLO window.",
		func() float64 { return t.slo.quantile(0.99) }, obs.L("tenant", id))
	s.reg.GaugeFunc("spmmrr_slo_burn_rate",
		"Error-budget burn rate over the SLO window (>1 = burning the 1% budget).",
		func() float64 { return t.slo.burnRate() }, obs.L("tenant", id))
	s.reg.CounterFunc("spmmrr_slo_violations_total",
		"Requests that failed or exceeded the SLO latency target.",
		func() int64 { return t.slo.violationTotal() }, obs.L("tenant", id))
	s.reg.CounterFunc("spmmrr_tenant_mispicks_total",
		"Autotuner feedback windows where the tenant's serving plan underperformed the trial loser.",
		func() int64 { return live.Mispicked() }, obs.L("tenant", id))
	return t
}

// AddTenant registers a second matrix under id, served through the
// same admission gate, breaker, retry policy, and (when configured)
// its own request coalescer. weight scales the admission cost of the
// tenant's requests: a request for K dense columns charges K*weight
// units (min 1), so a weight-4 tenant consumes the shared gate four
// times faster than a weight-1 tenant at the same K — the lever for
// tiering tenants on one server.
//
// The tenant's matrix shards into row panels when it crosses
// cfg.ShardNNZ; otherwise it serves through an online pipeline. Either
// way its no-reorder plans build synchronously under ctx, and the
// reordered plans build in the background under the server's
// lifecycle, only once a request passes their reorder gate, exactly
// like NewServer's matrix. Plans flow through the shared process-wide
// plan cache.
func (s *Server) AddTenant(ctx context.Context, id string, m *Matrix, cfg Config, weight int64) error {
	if s.closed.Load() {
		return ErrServerClosed
	}
	if id == "" {
		return errors.New("repro: empty tenant id")
	}
	s.tmu.RLock()
	_, dup := s.tenants[id]
	s.tmu.RUnlock()
	if dup {
		return fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	target := s.shardTarget(m)
	base, err := newShardedPipeline(ctx, s.baseCtx, m, cfg, target, s.traces)
	if err != nil {
		return err
	}
	// newTenant registers the tenant's metric series, and a second
	// registration of the same series panics: only the call that
	// reserves id under the write lock may wire the tenant.
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if _, dup := s.tenants[id]; dup {
		return fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	s.tenants[id] = s.newTenant(id, weight, base, target)
	return nil
}

// shardTarget is the panel target a tenant matrix m is served at:
// ShardNNZ once m crosses it, else 0 (one panel).
func (s *Server) shardTarget(m *Matrix) int {
	if s.cfg.ShardNNZ > 0 && m.NNZ() > s.cfg.ShardNNZ {
		return s.cfg.ShardNNZ
	}
	return 0
}

// Tenants lists the registered tenant ids, sorted.
func (s *Server) Tenants() []string {
	s.tmu.RLock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	s.tmu.RUnlock()
	sort.Strings(ids)
	return ids
}

// TenantStats returns one tenant's outcome counters; ok is false for
// an unknown id.
func (s *Server) TenantStats(id string) (ts TenantStats, ok bool) {
	s.tmu.RLock()
	t, ok := s.tenants[id]
	s.tmu.RUnlock()
	if !ok {
		return TenantStats{}, false
	}
	return t.stats(), true
}

// AllTenantStats snapshots every tenant's counters, sorted by id.
func (s *Server) AllTenantStats() []TenantStats {
	s.tmu.RLock()
	all := make([]TenantStats, 0, len(s.tenants))
	for _, t := range s.tenants {
		all = append(all, t.stats())
	}
	s.tmu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// tenantByID resolves a tenant id for the *Tenant entry points.
func (s *Server) tenantByID(id string) (*tenant, error) {
	s.tmu.RLock()
	t, ok := s.tenants[id]
	s.tmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	return t, nil
}

// snapshotTenants copies the registry for lock-free iteration.
func (s *Server) snapshotTenants() []*tenant {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	all := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		all = append(all, t)
	}
	return all
}

// Pipeline exposes the default tenant's *current* online pipeline
// (trial state, Degraded, WaitPreprocessed) — nil when the default
// matrix is served sharded (ShardNNZ crossed), whose panels each run
// their own trial (see Sharded). A live-mutation rebuild swap replaces
// the pipeline; re-read after mutating.
func (s *Server) Pipeline() *OnlinePipeline { return s.def.live.Online() }

// Sharded exposes the default tenant's current sharded pipeline — nil
// unless the default matrix crossed ShardNNZ.
func (s *Server) Sharded() *ShardedPipeline { return s.def.live.Sharded() }

// Live exposes the default tenant's live (mutable) pipeline — its
// mutation stats, epoch, and degradation state.
func (s *Server) Live() *LivePipeline { return s.def.live }

// LiveTenant exposes the live pipeline of the tenant registered under
// id.
func (s *Server) LiveTenant(id string) (*LivePipeline, error) {
	t, err := s.tenantByID(id)
	if err != nil {
		return nil, err
	}
	return t.live, nil
}

// Stats returns a snapshot of every resilience counter. Every number
// is read from the same registry objects /metrics renders, so the two
// views cannot disagree.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Admission: s.adm.Stats(),
		Breaker:   s.brk.Stats(),
		Retries:   s.retries.Value(),
		Fallbacks: s.fallbacks.Value(),
		Degraded: s.def.live.state.Load().base.anyPanel(func(o *OnlinePipeline) bool {
			return o.rr.failure() != nil
		}),
	}
	for _, t := range s.snapshotTenants() {
		st.Completed += t.completed.Value()
		st.Failed += t.failed.Value()
		st.Cancelled += t.cancelled.Value()
	}
	return st
}

// Registry exposes the Server's metric registry (admission, breaker,
// server, plan-cache families). Process-wide families (kernels,
// preprocessing, online trials) live in obs.Default().
func (s *Server) Registry() *obs.Registry { return s.reg }

// Traces exposes the Server's per-request trace ring (most recent
// first), the source of /debug/traces.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// Events exposes the Server's structured decision-event ring (most
// recent first), the source of /debug/events: trial winners, plan
// swaps, overlay degradations, breaker transitions, quarantines,
// reinstatements, autotuner mispicks, and SLO budget burns.
func (s *Server) Events() *obs.EventRing { return s.events }

// ObsHandler returns the Server's observability HTTP handler:
// /metrics (Prometheus text exposition over the Server's registry
// merged with the process-wide one), /healthz, /readyz (ready while no
// background reordered build is in flight),
// /debug/traces (JSON trace ring), /debug/events (JSON decision-event
// ring), /debug/explain?tenant=X (one joined diagnosis document, see
// Explain), and /debug/pprof/*.
func (s *Server) ObsHandler() http.Handler {
	return obs.NewHandler(obs.HandlerConfig{
		Registries: []*obs.Registry{s.reg, obs.Default()},
		Traces:     s.traces,
		Events:     s.events,
		Explain: func(tenant string) (any, error) {
			if tenant == "" {
				tenant = DefaultTenant
			}
			return s.Explain(tenant)
		},
		Ready:   s.preprocessed,
		Healthy: func() bool { return !s.closed.Load() },
	})
}

// preprocessed reports whether no tenant has a background reordered
// build in flight — the /readyz condition. A tenant whose requests have
// all stayed below the reorder gate never starts one.
func (s *Server) preprocessed() bool {
	for _, t := range s.snapshotTenants() {
		if t.live.state.Load().base.anyPanel(func(o *OnlinePipeline) bool { return !o.Preprocessed() }) {
			return false
		}
	}
	return true
}

// SpMMInto computes Y = S·X into y for the default tenant (see
// SpMMIntoTenant).
func (s *Server) SpMMInto(ctx context.Context, y *Dense, x *Dense) error {
	return s.SpMMIntoTenant(ctx, DefaultTenant, y, x)
}

// SpMMIntoTenant computes Y = S·X into y (S.Rows × X.Cols) for the
// tenant registered under id, through the full resilience stack. It
// returns ErrUnknownTenant, ErrOverloaded (load shed), ErrServerClosed,
// the context's error, or the final attempt's error; transient failures
// are retried with backoff before any error surfaces. Steady-state
// calls stay allocation-free when coalescing is off (a coalesced pass
// allocates only per batch, in pooled scratch).
//
// With CoalesceWindow configured, calls for the same tenant that arrive
// while one of its passes runs coalesce into one batched kernel pass at
// the combined width; each caller still pays its own admission weight
// and keeps its own deadline.
func (s *Server) SpMMIntoTenant(ctx context.Context, id string, y *Dense, x *Dense) error {
	t, err := s.tenantByID(id)
	if err != nil {
		return err
	}
	return s.do(ctx, t, "spmm_into", s.reqSpMMInto, x.Cols, func(ctx context.Context, mode serveMode) error {
		return s.runSpMM(ctx, t, mode, y, x)
	})
}

// serveMode selects how one attempt executes a request. The breaker
// and the integrity quarantine each own a degraded mode; they are
// deliberately distinct paths — the breaker's no-reorder fallback can
// itself be the suspect plan, so quarantined requests run the
// reference row-wise kernels instead.
type serveMode int

const (
	// modeFull: the normal serving path (coalesced when configured).
	modeFull serveMode = iota
	// modeVerify: the normal path, then shadow-verify sampled output
	// rows against the reference kernel on the unpermuted matrix.
	modeVerify
	// modeFallback: the breaker's no-reorder fallback (width 0, which no
	// reorder gate passes).
	modeFallback
	// modeQuarantine: the integrity reference path — row-wise kernels
	// on the original matrix, bypassing every transformed plan.
	modeQuarantine
)

// runSpMM executes one SpMM attempt against the tenant's live state in
// mode (see liveState.spmmInto; the live overlay is merged in every
// mode). The breaker's fallback and the quarantine path run direct,
// per request and uncoalesced; the main path goes through the tenant's
// coalescer when one is configured, with sampled requests
// shadow-verified after the batch lands. Shapes are validated before
// joining a batch so one malformed request can never fail a batch it
// shares with well-formed ones, and re-validated at batch launch in
// case a mutation landed in between.
func (s *Server) runSpMM(ctx context.Context, t *tenant, mode serveMode, y, x *Dense) error {
	serve := func(st *liveState) error {
		if t.coal == nil || mode == modeFallback || mode == modeQuarantine {
			return st.spmmInto(ctx, y, x, x.Cols, mode)
		}
		if err := st.checkSpMM(y, x); err != nil {
			return err
		}
		return t.coal.Do(ctx, BatchOp{Y: y, X: x})
	}
	if mode != modeVerify {
		return serve(t.live.state.Load())
	}
	return s.verified(t, serve, func(cur *Matrix) error {
		return integrity.CheckSpMMRows(cur, x, y, s.cfg.VerifyRows, t.integ.Seed(),
			integrity.DefaultRelTol, integrity.DefaultAbsTol)
	})
}

// runSDDMM is runSpMM's SDDMM analog (no coalescing on this path).
func (s *Server) runSDDMM(ctx context.Context, t *tenant, mode serveMode, out *Matrix, x, y *Dense) error {
	serve := func(st *liveState) error { return st.sddmmInto(ctx, out, x, y, mode) }
	if mode != modeVerify {
		return serve(t.live.state.Load())
	}
	return s.verified(t, serve, func(cur *Matrix) error {
		return integrity.CheckSDDMMRows(cur, x, y, out.Val, s.cfg.VerifyRows, t.integ.Seed(),
			integrity.DefaultRelTol, integrity.DefaultAbsTol)
	})
}

// verified serves one sampled request through serve and then
// shadow-verifies it with check, which recomputes a random subset of
// output rows with the reference row-wise kernel on the original
// (unpermuted) matrix. The published state is loaded once before
// serving and compared by pointer afterwards: every publish installs a
// fresh liveState, so pointer equality proves the output was computed
// against exactly the snapshot we would verify it with — if a mutation
// or plan swap landed in between, the check is skipped (counted, never
// silently dropped) rather than risking a false mismatch.
func (s *Server) verified(t *tenant, serve func(*liveState) error, check func(cur *Matrix) error) error {
	gen := t.live.baseGen()
	st0 := t.live.state.Load()
	if err := serve(st0); err != nil {
		return err
	}
	if t.live.state.Load() != st0 {
		t.integ.OnSkipped()
		return nil
	}
	if err := check(st0.cur); err != nil {
		return s.onMismatch(t, gen, err)
	}
	t.integ.OnVerified()
	return nil
}

// onMismatch handles a confirmed shadow-verification failure: on the
// first confirmation for this plan generation the tenant's plans are
// evicted from both cache tiers (memory and disk — a corrupt plan must
// not warm-start the next process) and a background rebuild is kicked
// so the tenant can heal; either way the request errors with
// integrity.ErrMismatch, which the retry loop treats as transient so
// the caller's surviving attempts re-route through the quarantine
// reference path.
func (s *Server) onMismatch(t *tenant, gen uint64, cause error) error {
	if t.integ.OnMismatch(gen) {
		s.events.Emit(obs.Event{
			Type:   obs.EventQuarantine,
			Tenant: t.id,
			Epoch:  t.live.Epoch(),
			Detail: cause.Error(),
		})
		t.live.evictPlans()
		t.live.ForceRebuild()
	}
	return cause
}

// SDDMMInto computes O = S ⊙ (Y·Xᵀ) into out for the default tenant
// (see SDDMMIntoTenant).
func (s *Server) SDDMMInto(ctx context.Context, out *Matrix, x, y *Dense) error {
	return s.SDDMMIntoTenant(ctx, DefaultTenant, out, x, y)
}

// SDDMMIntoTenant computes O = S ⊙ (Y·Xᵀ) into out, which must have the
// live matrix's current sparsity structure, for the tenant registered
// under id, through the full resilience stack (see SpMMIntoTenant).
func (s *Server) SDDMMIntoTenant(ctx context.Context, id string, out *Matrix, x, y *Dense) error {
	t, err := s.tenantByID(id)
	if err != nil {
		return err
	}
	return s.do(ctx, t, "sddmm_into", s.reqSDDMMInto, x.Cols, func(ctx context.Context, mode serveMode) error {
		return s.runSDDMM(ctx, t, mode, out, x, y)
	})
}

// do runs one request through admission, deadline, retry, breaker,
// and integrity routing, recording a per-request trace (admission
// wait, attempts, retry backoffs, kernel spans recorded further down
// the stack) that lands in the /debug/traces ring. run receives the
// serveMode chosen by attempt: the full online path, the same path
// followed by a sampled shadow verification, the breaker's no-reorder
// fallback, or the quarantine reference path (the live overlay is
// merged in every mode). k is the request's dense width. Its gate cost
// is k scaled by the tenant's admission weight — and by the tenant's
// current overlay fraction, since overlay rows are computed serially on
// top of the base pass (see serve.OverlayWeight) — and its terminal
// outcome lands in exactly one tenant counter (see TenantStats for the
// reconciliation identities).
func (s *Server) do(ctx context.Context, t *tenant, op string, hist *obs.Histogram, k int, run func(context.Context, serveMode) error) (err error) {
	if s.closed.Load() {
		return ErrServerClosed
	}
	start := time.Now()
	tr := obs.NewTrace(op)
	tr.Annotate("tenant", t.id)
	ctx = obs.WithTrace(ctx, tr)
	// Push after everything else (defers run LIFO): once pushed, the
	// ring owns the trace and may recycle it. The same defer feeds the
	// SLO watchdog: every terminal outcome — completed, failed, shed,
	// expired — scores against the tenant's window, and the edge into
	// budget burn emits one slo_burn event.
	defer func() {
		s.traces.Push(tr)
		d := time.Since(start)
		hist.Observe(d.Seconds())
		if burnStart, rate := t.slo.record(d, err != nil); burnStart {
			s.events.Emit(obs.Event{
				Type:   obs.EventSLOBurn,
				Tenant: t.id,
				Detail: "error budget burning",
				Value:  rate,
			})
		}
	}()
	if s.cfg.DefaultDeadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
			defer cancel()
		}
	}
	weight := max(int64(k), 1) * t.weight
	overlayNNZ, baseNNZ := t.live.overlayCost()
	weight = serve.OverlayWeight(weight, overlayNNZ, baseNNZ)
	asp := tr.StartSpan("admission")
	if err := s.adm.Acquire(ctx, weight); err != nil {
		asp.End()
		switch {
		case errors.Is(err, serve.ErrClosed):
			err = ErrServerClosed
			t.expired.Inc()
		case errors.Is(err, ErrOverloaded):
			t.shed.Inc()
		default:
			// Context death or queue-deadline expiry before admission.
			t.expired.Inc()
		}
		tr.Annotate("outcome", "rejected")
		tr.Finish(err)
		return err
	}
	asp.End()
	t.admitted.Inc()
	defer s.adm.Release(weight)

	retries, err := serve.Retry(ctx,
		serve.RetryPolicy{MaxAttempts: s.cfg.MaxAttempts, BaseDelay: s.cfg.RetryBase, MaxDelay: retryMax},
		transientError,
		func(int) error { return s.attempt(ctx, t, k, run) })
	s.retries.Add(int64(retries))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.cancelled.Inc()
		} else {
			t.failed.Inc()
		}
		tr.Annotate("outcome", "failed")
		tr.Finish(err)
		return err
	}
	t.completed.Inc()
	tr.Annotate("outcome", "completed")
	tr.Finish(nil)
	return nil
}

// attempt executes one try. The integrity monitor routes first: a
// quarantined tenant serves the reference path outright (no breaker
// accounting — the transformed plans aren't exercised), and a sampled
// healthy request upgrades to modeVerify. The breaker is then
// consulted only when the call would actually exercise a reordered
// plan: a call of width k below every panel's reorder gate, and panels
// that are degraded, decided for no-reorder, or still building, serve
// without one, and their outcomes must not open (or close) the
// reordered path's circuit. A verification mismatch is
// likewise excluded from breaker accounting: the quarantine owns that
// failure mode, and double-charging it would conflate "plan computes
// wrong numbers" with "path is unhealthy" in the fallback ledgers.
func (s *Server) attempt(ctx context.Context, t *tenant, k int, run func(context.Context, serveMode) error) error {
	tr := obs.TraceFrom(ctx)
	sp := tr.StartSpan("attempt")
	defer sp.End()
	dec := t.integ.Route(t.live.baseGen())
	if dec.Fallback {
		tr.Annotate("path", "quarantine")
		return run(ctx, modeQuarantine)
	}
	mode := modeFull
	if dec.Verify {
		mode = modeVerify
	}
	if !reorderedPathActive(t, k) {
		tr.Annotate("path", "plain")
		return run(ctx, mode)
	}
	// Breaker state as observed when this attempt was routed; Allow may
	// advance it (Open → HalfOpen).
	tr.Annotate("breaker", s.brk.State().String())
	if !s.brk.Allow() {
		s.fallbacks.Inc()
		tr.Annotate("path", "fallback")
		return run(ctx, modeFallback)
	}
	tr.Annotate("path", "reordered")
	err := run(ctx, mode)
	switch {
	case err == nil:
		s.brk.Success()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The caller gave up; says nothing about the path's health.
	case errors.Is(err, integrity.ErrMismatch):
		// The quarantine controller owns this outcome.
	default:
		s.brk.Failure()
	}
	return err
}

// reorderedPathActive reports whether a full-path call of width k for
// t right now would execute some panel's reordered plan (as the decided
// winner, or inside the trial). A coalesced request is judged at its
// own width, not its batch's.
func reorderedPathActive(t *tenant, k int) bool {
	return t.live.state.Load().base.anyPanel(func(o *OnlinePipeline) bool { return o.plan(k) == o.rr.Load() })
}

// Mutate applies one mutation batch to the default tenant's live
// matrix (see LivePipeline.Mutate): the batch validates and publishes
// atomically, serving never pauses, and structural changes are folded
// back into a fresh preprocessed base in the background. Mutations
// bypass the admission gate — they are control-plane writes, not
// serving work — but requests served while an overlay is outstanding
// pay a proportionally higher admission weight (serve.OverlayWeight).
func (s *Server) Mutate(ctx context.Context, mu Mutation) error {
	return s.MutateTenant(ctx, DefaultTenant, mu)
}

// MutateTenant is Mutate against the tenant registered under id.
func (s *Server) MutateTenant(ctx context.Context, id string, mu Mutation) error {
	if s.closed.Load() {
		return ErrServerClosed
	}
	t, err := s.tenantByID(id)
	if err != nil {
		return err
	}
	return t.live.Mutate(ctx, mu)
}

// transientError classifies errors worth retrying: injected faults and
// recovered worker panics are momentary by construction, and a
// verification mismatch quarantines the tenant before it surfaces, so
// the retry re-routes through the reference path and usually succeeds
// in-request; validation and shape errors are not transient, and
// context errors are handled by Retry itself.
func transientError(err error) bool {
	var pe *PanicError
	return errors.Is(err, faultinject.Err) ||
		errors.Is(err, integrity.ErrMismatch) ||
		errors.As(err, &pe)
}

// Close shuts the server down gracefully: new requests fail fast with
// ErrServerClosed, queued requests are rejected, in-flight requests
// drain (bounded by ctx), the background reordered build is cancelled
// and joined, and — with PlanDir configured — the plan cache is
// snapshotted to disk so the next process warm starts. Close is
// idempotent; every call returns the first call's error.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.adm.Close()
		err := s.adm.Drain(ctx)
		s.cancel()
		for _, t := range s.snapshotTenants() {
			// Quiesce after cancel: in-flight rebuilds observe the dead
			// lifecycle context and exit promptly instead of being waited
			// out; the mutation log closes either way.
			if qerr := t.live.Quiesce(ctx); err == nil {
				err = qerr
			}
			if werr := t.live.state.Load().base.WaitPreprocessed(ctx); err == nil {
				err = werr
			}
		}
		if s.cfg.PlanDir != "" {
			if _, serr := SnapshotPlanCache(); err == nil {
				err = serr
			}
		}
		s.closeErr = err
	})
	return s.closeErr
}

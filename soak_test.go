package repro_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// soakTally is one client goroutine's view of its request outcomes;
// the per-class totals are reconciled against Server.Stats() at the
// end, so every counter the server exports is cross-checked against
// what clients actually observed.
type soakTally struct {
	requests   int64
	successes  int64
	sheds      int64
	ctxErrs    int64
	faults     int64
	unexpected error
}

// soakMutator is one tenant's background mutation driver: it
// continuously replaces random rows of the live matrix with their own
// current content. Each replacement is structural as far as the
// pipeline can tell — it lands in the row overlay, arms background
// re-preprocessing, and races atomic plan swaps against in-flight
// serving — but the served values never change, so the clients'
// precomputed expected outputs stay bit-identical while the entire
// mutation path churns underneath them.
type soakMutator struct {
	ok         atomic.Int64
	unexpected error
	stop       chan struct{}
	done       chan struct{}
}

func startIdentityMutator(live *repro.LivePipeline, mutate func(context.Context, repro.Mutation) error, seed int64, tolerateFaults bool) *soakMutator {
	sm := &soakMutator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		rng := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-sm.stop:
				return
			default:
			}
			cur := live.Matrix()
			r := rng.Intn(cur.Rows)
			mu := repro.Mutation{ReplaceRows: []repro.RowUpdate{{Row: r, Def: repro.RowDef{
				Cols: append([]int32(nil), cur.RowCols(r)...),
				Vals: append([]float32(nil), cur.RowVals(r)...),
			}}}}
			switch err := mutate(context.Background(), mu); {
			case err == nil:
				sm.ok.Add(1)
			case tolerateFaults && errors.Is(err, faultinject.Err):
				// The overlay-append fault site rejected the batch whole —
				// designed behavior; the ledger simply must not move.
			default:
				sm.unexpected = err
				return
			}
			// Slow enough that rebuild churn doesn't starve the serving
			// clients on a small GOMAXPROCS, fast enough that overlay
			// serving and swaps stay continuously in flight.
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return sm
}

func (sm *soakMutator) halt() {
	close(sm.stop)
	<-sm.done
}

// TestServerChaosSoak drives a full Server with concurrent clients,
// short deadlines, pre-cancelled contexts, and a fault injector cycling
// error (and panic) hooks through every registered fault site, for a
// bounded wall-clock budget. It then asserts the system-level
// robustness contract: no goroutine leaks, no wedged requests (Close
// drains within its deadline), client-observed outcomes reconcile
// exactly with the server's counters, the reordered path's counters
// satisfy their invariants, and the plan cache still snapshots cleanly.
//
// Run under -race (the CI soak job does); the test is also the
// designated chaos budget for `make soak`.
func TestServerChaosSoak(t *testing.T) {
	// The first base builds its reordered plan and trials it; rebuilt
	// bases are gated on the host's L2 again (see the priming request).
	gateAll := repro.SetGateL2ForTest(t, 0)
	chaosBudget, cleanTail := 5*time.Second, 500*time.Millisecond
	if testing.Short() {
		chaosBudget, cleanTail = 1200*time.Millisecond, 300*time.Millisecond
	}

	// Multi-chunk kernel dispatch even on a single-CPU machine, so the
	// soak exercises the worker pool, chunk-boundary cancellation, and
	// real interleaving.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	dir := t.TempDir()
	repro.SetPlanCacheCapacity(8)
	defer repro.SetPlanCacheCapacity(64)
	defer faultinject.Reset()

	m := freshScrambled(t, 3001)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	cfg := repro.DefaultConfig()
	cfg.Workers = 4
	cfg.PreprocessBudget = time.Hour
	// Small capacities on purpose: weight-8 requests against a 16-unit
	// gate admit two at a time, so six clients constantly queue and shed.
	s, err := repro.NewServerWithPathForTest(context.Background(), m, cfg, repro.ServerConfig{
		MaxInFlight:     16,
		MaxQueue:        2,
		DefaultDeadline: 2 * time.Second,
		MaxAttempts:     3,
		RetryBase:       200 * time.Microsecond,
		PlanDir:         dir,
		// Large enough that nothing is evicted during the soak, so the
		// decision-event ledger below reconciles exactly.
		EventRing: 1 << 15,
	}, 3, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s.Pipeline(), 8)
	if deg, cause := s.Pipeline().Degraded(); deg {
		t.Fatalf("build degraded before chaos started: %v", cause)
	}
	// Prime: run the first-call trial cleanly so the pipeline is decided
	// and chaos-era serving takes the lock-free path.
	prime := repro.NewRandomDense(m.Cols, 8, 42)
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, prime); err != nil {
		t.Fatalf("priming request: %v", err)
	}
	if done, _ := s.Pipeline().Decided(); !done {
		t.Fatalf("priming request did not decide the trial")
	}
	gateAll()

	// scrape reads /metrics through the real HTTP handler, requires a
	// grammar-conformant exposition, and returns the parsed samples.
	scrape := func() map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("/metrics = %d", rec.Code)
		}
		body := rec.Body.String()
		if err := obs.ValidateExposition(body); err != nil {
			t.Fatalf("malformed exposition: %v", err)
		}
		samples, err := obs.ParseSamples(body)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	// assertMonotone requires that no counter-like series (counters and
	// histogram children) lost a series or went backwards between two
	// scrapes — scraping mid-chaos must never observe a decrement.
	assertMonotone := func(prev, cur map[string]float64) {
		t.Helper()
		for key, v := range prev {
			name := key
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			switch {
			case strings.HasSuffix(name, "_total"), strings.HasSuffix(name, "_count"),
				strings.HasSuffix(name, "_sum"), strings.HasSuffix(name, "_bucket"):
			default:
				continue
			}
			nv, ok := cur[key]
			if !ok {
				t.Fatalf("series %s disappeared between scrapes", key)
			}
			if nv < v {
				t.Fatalf("series %s went backwards between scrapes: %v -> %v", key, v, nv)
			}
		}
	}
	pre := scrape()

	// Per-client operands and fault-free reference results, computed
	// before any fault is armed.
	const clients = 6
	xs := make([]*repro.Dense, clients)
	yds := make([]*repro.Dense, clients)
	wants := make([]*repro.Dense, clients)
	for g := 0; g < clients; g++ {
		xs[g] = repro.NewRandomDense(m.Cols, 8, int64(100+g))
		yds[g] = repro.NewRandomDense(m.Rows, 8, int64(200+g))
		w, err := repro.SpMM(m, xs[g])
		if err != nil {
			t.Fatal(err)
		}
		wants[g] = w
	}

	// Fault injector: cycle an error hook (and, at the panic-isolated
	// kernel site, a panic hook) through every registered site, with a
	// short fault-free window between sites so retries can land.
	var injected atomic.Int64
	sites := faultinject.Sites()
	stopInj := make(chan struct{})
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		for i := 0; ; i++ {
			select {
			case <-stopInj:
				return
			default:
			}
			site := sites[i%len(sites)]
			var restore func()
			if site == "kernels.exec" && i%2 == 1 {
				restore = faultinject.Set(site, func() error {
					injected.Add(1)
					panic("soak: injected panic at kernels.exec")
				})
			} else {
				restore = faultinject.Set(site, func() error {
					injected.Add(1)
					return faultinject.Err
				})
			}
			time.Sleep(2 * time.Millisecond)
			restore()
			time.Sleep(time.Millisecond)
		}
	}()

	// Mutator: pump identity-content row replacements through the live
	// mutation path for the whole soak, so overlay serving, background
	// rebuilds, and atomic plan swaps all race the chaos clients and the
	// fault injector mid-flight.
	mut := startIdentityMutator(s.Live(), s.Mutate, 3001, true)

	stopClients := time.Now().Add(chaosBudget + cleanTail)
	tallies := make([]soakTally, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ta := &tallies[g]
			x, yd, want := xs[g], yds[g], wants[g]
			bg := context.Background()
			for i := 0; time.Now().Before(stopClients); i++ {
				var ctx context.Context
				var cancel context.CancelFunc
				switch {
				case i%13 == 0:
					ctx, cancel = context.WithCancel(bg)
					cancel() // request arrives already cancelled
				case i%5 == 0:
					ctx, cancel = context.WithTimeout(bg, time.Millisecond)
				default:
					ctx, cancel = context.WithTimeout(bg, 2*time.Second)
				}
				ta.requests++
				var err error
				switch i % 3 {
				case 0:
					var y *repro.Dense
					y, err = serverSpMM(ctx, s, repro.DefaultTenant, x)
					if err == nil && i%24 == 0 {
						for k := range want.Data {
							if math.Abs(float64(want.Data[k]-y.Data[k])) > 1e-4 {
								ta.unexpected = errDiverged
								cancel()
								return
							}
						}
					}
				case 1:
					y := repro.GetDense(m.Rows, x.Cols)
					err = s.SpMMInto(ctx, y, x)
					repro.PutDense(y)
				default:
					_, err = serverSDDMM(ctx, s, repro.DefaultTenant, x, yd)
				}
				cancel()
				switch {
				case err == nil:
					ta.successes++
				case errors.Is(err, repro.ErrOverloaded):
					ta.sheds++
					// A real client backs off on load shedding; without
					// this the loop degenerates into a shed-counting spin.
					time.Sleep(time.Millisecond)
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					ta.ctxErrs++
				case errors.Is(err, faultinject.Err), isPanicError(err):
					ta.faults++
				default:
					ta.unexpected = err
					return
				}
			}
		}(g)
	}

	// Chaos phase, then a fault-free tail so in-flight retries and the
	// reordered path's recovery probe get a clean runway before
	// reconciliation.
	// Halfway through, scrape /metrics under full load: the exposition
	// must stay well-formed and every counter monotone even while faults
	// fire and requests race the collector.
	time.Sleep(chaosBudget / 2)
	mid := scrape()
	assertMonotone(pre, mid)
	time.Sleep(chaosBudget - chaosBudget/2)
	close(stopInj)
	<-injDone
	mut.halt()
	faultinject.Reset()
	wg.Wait()
	if mut.unexpected != nil {
		t.Fatalf("mutator: unexpected error %v", mut.unexpected)
	}

	var total soakTally
	for g := range tallies {
		if err := tallies[g].unexpected; err != nil {
			t.Fatalf("client %d: unexpected error %v", g, err)
		}
		total.requests += tallies[g].requests
		total.successes += tallies[g].successes
		total.sheds += tallies[g].sheds
		total.ctxErrs += tallies[g].ctxErrs
		total.faults += tallies[g].faults
	}
	if total.requests == 0 || total.successes == 0 {
		t.Fatalf("soak did no work: %+v", total)
	}
	t.Logf("soak: %d requests, %d ok, %d shed, %d ctx, %d fault; %d fault fires injected",
		total.requests, total.successes, total.sheds, total.ctxErrs, total.faults, injected.Load())

	// A post-chaos request must succeed (the path may still be open —
	// then it is served by the fallback, which is precisely the point).
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, prime); err != nil {
		t.Fatalf("post-chaos request: %v", err)
	}
	// The priming and post-chaos requests went through the same stack.
	total.requests += 2
	total.successes += 2

	// Reconcile client-observed outcomes with the server's counters.
	st := s.Stats()
	if st.Completed != total.successes {
		t.Fatalf("server completed %d, clients observed %d successes", st.Completed, total.successes)
	}
	if st.Admission.Shed != total.sheds {
		t.Fatalf("server shed %d, clients observed %d overload errors", st.Admission.Shed, total.sheds)
	}
	if st.Admission.Admitted != st.Completed+st.Failed+st.Cancelled {
		t.Fatalf("admitted %d != completed %d + failed %d + cancelled %d",
			st.Admission.Admitted, st.Completed, st.Failed, st.Cancelled)
	}
	if got := st.Admission.Admitted + st.Admission.Shed + st.Admission.Expired; got > total.requests {
		t.Fatalf("admission accounted for %d requests, clients made %d", got, total.requests)
	}
	if st.Failed > total.ctxErrs+total.faults {
		t.Fatalf("server failed %d > client-observed errors %d",
			st.Failed, total.ctxErrs+total.faults)
	}
	if st.Admission.InFlight != 0 || st.Admission.InUse != 0 || st.Admission.QueueLen != 0 {
		t.Fatalf("requests still wedged in the gate: %+v", st.Admission)
	}

	// Reordered-path invariants (the lifecycle and event ledger are
	// checked per tenant by reconcilePaths below): every trip requires
	// real failures, and fallback routing must agree with the path's own
	// rejection count exactly.
	b := pathStats(t, s)
	if st.Fallbacks != b.PathRejected {
		t.Fatalf("fallbacks %d != path rejected %d", st.Fallbacks, b.PathRejected)
	}
	if b.PathTrips > 0 && injected.Load() == 0 {
		t.Fatalf("path opened %d times with no injected faults", b.PathTrips)
	}
	if b.PathFailures > 0 && injected.Load() == 0 && total.ctxErrs == 0 {
		t.Fatalf("path recorded %d failures with no fault source", b.PathFailures)
	}
	if st.Degraded {
		t.Fatalf("serving-time faults degraded the pipeline (build finished pre-chaos)")
	}

	// Stats() and /metrics read the same registry objects, so with the
	// load stopped they must agree exactly — the "can never disagree"
	// contract of the single snapshot path.
	final := scrape()
	assertMonotone(mid, final)
	for key, want := range map[string]float64{
		"spmmrr_server_completed_total":                   float64(st.Completed),
		"spmmrr_server_failed_total":                      float64(st.Failed),
		"spmmrr_server_retries_total":                     float64(st.Retries),
		"spmmrr_admission_admitted_total":                 float64(st.Admission.Admitted),
		"spmmrr_admission_shed_total":                     float64(st.Admission.Shed),
		"spmmrr_admission_expired_total":                  float64(st.Admission.Expired),
		`spmmrr_server_fallbacks_total{tenant="default"}`: float64(st.Fallbacks),
		`spmmrr_breaker_trips_total{tenant="default"}`:    float64(b.PathTrips),
		`spmmrr_breaker_rejected_total{tenant="default"}`: float64(b.PathRejected),
	} {
		if got, ok := final[key]; !ok || got != want {
			t.Fatalf("scrape %s = %v (present=%v), Stats() says %v", key, got, ok, want)
		}
	}

	// Graceful shutdown with zero in-flight work must be prompt and
	// clean, and must leave a loadable snapshot behind.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close after soak: %v (wedged requests?)", err)
	}
	if n := countPlanFiles(t, dir); n < 2 {
		t.Fatalf("post-soak snapshot wrote %d plan files, want both variants", n)
	}
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, prime); !errors.Is(err, repro.ErrServerClosed) {
		t.Fatalf("request after Close = %v, want ErrServerClosed", err)
	}

	// With the pipeline quiesced, the live-mutation ledger must
	// reconcile exactly: every accepted mutation bumped the epoch once,
	// every swap bumped it once more, and every rebuild attempt ended in
	// exactly one of swap / failed / cancelled. Permanent rebuild
	// degradation is legal here — the injector arms the rebuild and
	// swap-publish fault sites — and overlay-forever serving was already
	// verified above by the clients that kept getting exact answers.
	lst := s.Live().Stats()
	if mut.ok.Load() == 0 {
		t.Fatal("mutator never landed a mutation")
	}
	if lst.Mutations != mut.ok.Load() {
		t.Fatalf("live recorded %d mutations, mutator landed %d", lst.Mutations, mut.ok.Load())
	}
	if lst.Epoch != uint64(lst.Mutations+lst.Swaps) {
		t.Fatalf("live epoch %d != mutations %d + swaps %d", lst.Epoch, lst.Mutations, lst.Swaps)
	}
	if lst.RebuildsStarted != lst.Swaps+lst.RebuildsFailed+lst.RebuildsCancelled {
		t.Fatalf("rebuilds started %d != swaps %d + failed %d + cancelled %d",
			lst.RebuildsStarted, lst.Swaps, lst.RebuildsFailed, lst.RebuildsCancelled)
	}
	t.Logf("live: %d mutations, %d swaps, %d rebuilds (%d failed, %d cancelled), degraded=%v, overlay %d rows at close",
		lst.Mutations, lst.Swaps, lst.RebuildsStarted, lst.RebuildsFailed, lst.RebuildsCancelled,
		lst.Degraded, lst.OverlayRows+lst.TailRows)

	// Decision-event ledger: every state transition the metrics counted
	// must have left a matching event in the ring — same-site emission,
	// so with nothing evicted the counts reconcile exactly.
	ring := s.Events()
	if ring.Emitted() > uint64(ring.Cap()) {
		t.Fatalf("event ring overflowed (%d emitted, cap %d): ledger no longer exact", ring.Emitted(), ring.Cap())
	}
	events := ring.Snapshot()
	if err := obs.ValidateEvents(mustJSON(t, events)); err != nil {
		t.Fatalf("event ledger invalid: %v", err)
	}
	counts := map[string]int64{}
	for _, e := range events {
		counts[e.Type]++
	}
	reconcilePaths(t, s, events)
	if got := counts[obs.EventPlanSwap]; got != lst.Swaps {
		t.Fatalf("plan_swap events %d != live swaps %d", got, lst.Swaps)
	}
	if counts[obs.EventTrialWinner] == 0 {
		t.Fatal("primed trial decided but no trial_winner event in the ledger")
	}
	if !lst.Degraded && counts[obs.EventOverlayDegraded] != 0 {
		t.Fatalf("%d overlay_degraded events but live is not degraded", counts[obs.EventOverlayDegraded])
	}
	if counts[obs.EventQuarantine] != 0 || counts[obs.EventReinstate] != 0 {
		t.Fatalf("integrity events with verification off: %v", counts)
	}
	t.Logf("events: %v (%d total)", counts, len(events))
}

// mustJSON marshals v for schema validation inside soak assertions.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reconcilePaths checks every tenant's reordered-path ledger against
// the decision events and the Server's summed fallbacks: per tenant the
// lifecycle is possible (each close needs a half-open, each half-open a
// trip, each trip a failure) and its breaker_transition events equal
// trips + half-opens + closes; the Server's Fallbacks is the tenants'
// rejected attempts summed.
func reconcilePaths(t *testing.T, s *repro.Server, events []obs.Event) {
	t.Helper()
	transitions := map[string]int64{}
	for _, e := range events {
		if e.Type == obs.EventBreakerTransition {
			transitions[e.Tenant]++
		}
	}
	var rejected int64
	for _, ts := range s.AllTenantStats() {
		p := ts.Integrity
		rejected += p.PathRejected
		if p.PathHalfOpens > p.PathTrips || p.PathCloses > p.PathHalfOpens || p.PathTrips > p.PathFailures {
			t.Fatalf("tenant %s: impossible path lifecycle: %+v", ts.ID, p)
		}
		if got, want := transitions[ts.ID], p.PathTrips+p.PathHalfOpens+p.PathCloses; got != want {
			t.Fatalf("tenant %s: breaker_transition events %d != trips %d + half-opens %d + closes %d",
				ts.ID, got, p.PathTrips, p.PathHalfOpens, p.PathCloses)
		}
	}
	if st := s.Stats(); st.Fallbacks != rejected {
		t.Fatalf("server fallbacks %d != tenants' rejected %d", st.Fallbacks, rejected)
	}
}

func isPanicError(err error) bool {
	var pe *repro.PanicError
	return errors.As(err, &pe)
}

// TestServerCoalescedMultiTenantSoak drives three tenants — the online
// default, a row-panel-sharded tenant, and a weight-3 online tenant —
// through one Server with request coalescing on, under concurrent
// clients mixing pre-cancelled contexts, aggressive deadlines, and
// normal traffic against a deliberately small admission gate. No
// faults are injected, so the per-tenant ledgers must reconcile
// EXACTLY: every request a client ever submitted lands in precisely
// one terminal counter of precisely one tenant,
//
//	Admitted  == Completed + Failed + Cancelled
//	submitted == Admitted + Shed + Expired
//
// and the per-tenant ledgers must sum to the server-wide admission
// counters. Run under -race (the `make soak` target does): the
// coalescer's join/excise/launch races against tenant counters are the
// point.
func TestServerCoalescedMultiTenantSoak(t *testing.T) {
	budget := 2 * time.Second
	if testing.Short() {
		budget = 600 * time.Millisecond
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	ma := freshScrambled(t, 7001)
	mb, err := repro.GenerateScrambledClusters(2048, 2048, 64, 7002)
	if err != nil {
		t.Fatal(err)
	}
	mc := freshScrambled(t, 7003)
	warmKernelPool(t, ma)
	defer testutil.CheckNoGoroutineLeak(t)()

	cfg := repro.DefaultConfig()
	cfg.Workers = 4
	cfg.PreprocessBudget = time.Hour
	// Shard threshold between the two matrix sizes: mb shards, ma and mc
	// serve online. The small gate forces queueing and shedding under
	// nine concurrent clients.
	shardNNZ := (ma.NNZ() + mb.NNZ()) / 2
	s, err := repro.NewServer(context.Background(), ma, cfg, repro.ServerConfig{
		MaxInFlight:     24,
		MaxQueue:        2,
		DefaultDeadline: 2 * time.Second,
		CoalesceWindow:  300 * time.Microsecond,
		CoalesceMaxOps:  8,
		ShardNNZ:        shardNNZ,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant(context.Background(), "b-sharded", mb, cfg, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant(context.Background(), "c-heavy", mc, cfg, 3); err != nil {
		t.Fatal(err)
	}
	if ts, _ := s.TenantStats("b-sharded"); !ts.Sharded || ts.Panels < 2 {
		t.Fatalf("tenant b-sharded stats = %+v, want sharded into >1 panels", ts)
	}
	if ts, _ := s.TenantStats("c-heavy"); ts.Sharded || ts.Weight != 3 {
		t.Fatalf("tenant c-heavy stats = %+v, want online with weight 3", ts)
	}

	tenants := []struct {
		id string
		m  *repro.Matrix
	}{
		{repro.DefaultTenant, ma},
		{"b-sharded", mb},
		{"c-heavy", mc},
	}

	// One identity-content mutator per tenant: live mutation, overlay
	// serving, and background swaps race the coalescer and the tenant
	// ledgers for the whole soak. No faults are injected, so every
	// mutation must land.
	lives := make([]*repro.LivePipeline, len(tenants))
	muts := make([]*soakMutator, len(tenants))
	for ti, tn := range tenants {
		lv, err := s.LiveTenant(tn.id)
		if err != nil {
			t.Fatal(err)
		}
		lives[ti] = lv
		id := tn.id
		muts[ti] = startIdentityMutator(lv, func(ctx context.Context, mu repro.Mutation) error {
			return s.MutateTenant(ctx, id, mu)
		}, int64(8000+ti), false)
	}
	const clientsPerTenant = 3
	wants := make([][]*repro.Dense, len(tenants))
	xss := make([][]*repro.Dense, len(tenants))
	for ti, tn := range tenants {
		wants[ti] = make([]*repro.Dense, clientsPerTenant)
		xss[ti] = make([]*repro.Dense, clientsPerTenant)
		for c := 0; c < clientsPerTenant; c++ {
			x := repro.NewRandomDense(tn.m.Cols, 4, int64(1000+10*ti+c))
			w, err := repro.SpMM(tn.m, x)
			if err != nil {
				t.Fatal(err)
			}
			xss[ti][c], wants[ti][c] = x, w
		}
	}

	// book files one request's outcome in its client's tally; false
	// means the error fits no ledger bucket and the client must stop.
	book := func(ta *soakTally, err error) bool {
		switch {
		case err == nil:
			ta.successes++
		case errors.Is(err, repro.ErrOverloaded):
			ta.sheds++
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			ta.ctxErrs++
		default:
			ta.unexpected = err
			return false
		}
		return true
	}

	stop := time.Now().Add(budget)
	tallies := make([]soakTally, len(tenants)*clientsPerTenant)
	var wg sync.WaitGroup
	for ti, tn := range tenants {
		for c := 0; c < clientsPerTenant; c++ {
			wg.Add(1)
			go func(ti, c int, id string, m *repro.Matrix) {
				defer wg.Done()
				ta := &tallies[ti*clientsPerTenant+c]
				x, want := xss[ti][c], wants[ti][c]
				bg := context.Background()
				for i := 0; time.Now().Before(stop); i++ {
					var ctx context.Context
					var cancel context.CancelFunc
					switch {
					case i%11 == 0:
						ctx, cancel = context.WithCancel(bg)
						cancel() // arrives already cancelled: expires pre-admission
					case i%7 == 0:
						ctx, cancel = context.WithTimeout(bg, 500*time.Microsecond)
					default:
						ctx, cancel = context.WithTimeout(bg, 2*time.Second)
					}
					ta.requests++
					var err error
					if i%2 == 0 {
						var y *repro.Dense
						y, err = serverSpMM(ctx, s, id, x)
						if err == nil {
							if i%16 == 0 {
								for k := range want.Data {
									if math.Abs(float64(want.Data[k]-y.Data[k])) > 1e-4 {
										ta.unexpected = errDiverged
										cancel()
										return
									}
								}
							}
							repro.PutDense(y)
						}
					} else {
						y := repro.GetDense(m.Rows, x.Cols)
						err = s.SpMMIntoTenant(ctx, id, y, x)
						repro.PutDense(y)
					}
					cancel()
					if !book(ta, err) {
						return
					}
					if errors.Is(err, repro.ErrOverloaded) {
						time.Sleep(time.Millisecond)
					}
				}
			}(ti, c, tn.id, tn.m)
		}
	}
	wg.Wait()
	// Every tenant must have completed work while all of them contended
	// for the gate; the join phase below adds to the tallies, so the
	// check reads this snapshot.
	loadOK := make([]int64, len(tenants))
	for g := range tallies {
		loadOK[g/clientsPerTenant] += tallies[g].successes
	}

	// Join phase. The -short budget books only a few joins, and faster
	// kernels shrink the windows' overlap further, so the joins check
	// below must not hinge on timing luck. Release GOMAXPROCS+2 of the
	// default tenant's requests together from a barrier, burst after
	// burst, until that tenant's Joins moves: the first GOMAXPROCS
	// launch at once, so a join needs one more to open the pending batch
	// and another to join it. The burst's operands are one column wide,
	// so the whole burst fits the admission gate at once even when the
	// mutator's overlay raises each request's weight (a K=4 request
	// weighs 5 then, and only four fit in 24 units). Burst request c is
	// booked in client c%clientsPerTenant's tally, so the ledgers still
	// reconcile exactly.
	joins := func() int64 {
		ts, _ := s.TenantStats(repro.DefaultTenant)
		return ts.Coalesce.Joins
	}
	const maxJoinBursts = 200
	burst := runtime.GOMAXPROCS(0) + 2
	xj := make([]*repro.Dense, burst)
	for c := range xj {
		xj[c] = repro.NewRandomDense(ma.Cols, 1, int64(2000+c))
	}
	joins0, bursts := joins(), 0
	for ; bursts < maxJoinBursts && joins() == joins0; bursts++ {
		release := make(chan struct{})
		errs := make([]error, burst)
		var bw sync.WaitGroup
		for c := 0; c < burst; c++ {
			bw.Add(1)
			go func(c int) {
				defer bw.Done()
				x := xj[c]
				y := repro.GetDense(ma.Rows, x.Cols)
				defer repro.PutDense(y)
				<-release
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				errs[c] = s.SpMMIntoTenant(ctx, repro.DefaultTenant, y, x)
			}(c)
		}
		close(release)
		bw.Wait()
		for c, err := range errs {
			ta := &tallies[c%clientsPerTenant] // the default tenant's clients come first
			ta.requests++
			book(ta, err)
		}
	}
	t.Logf("join phase: %d burst(s) of %d requests", bursts, burst)

	for ti, tn := range tenants {
		muts[ti].halt()
		if err := muts[ti].unexpected; err != nil {
			t.Fatalf("tenant %s mutator: unexpected error %v", tn.id, err)
		}
	}

	// Per-tenant exact reconciliation: client-observed outcomes against
	// the tenant's ledger, then the ledger's internal identities.
	var sumAdmitted, sumShed, sumJoins int64
	for ti, tn := range tenants {
		var tt soakTally
		for c := 0; c < clientsPerTenant; c++ {
			ta := &tallies[ti*clientsPerTenant+c]
			if ta.unexpected != nil {
				t.Fatalf("tenant %s client %d: unexpected error %v", tn.id, c, ta.unexpected)
			}
			tt.requests += ta.requests
			tt.successes += ta.successes
			tt.sheds += ta.sheds
			tt.ctxErrs += ta.ctxErrs
		}
		ts, ok := s.TenantStats(tn.id)
		if !ok {
			t.Fatalf("no stats for tenant %s", tn.id)
		}
		if tt.requests == 0 || loadOK[ti] == 0 {
			t.Fatalf("tenant %s did no work under load: %+v", tn.id, tt)
		}
		if ts.Failed != 0 {
			t.Fatalf("tenant %s failed %d requests with no fault source", tn.id, ts.Failed)
		}
		if ts.Completed != tt.successes {
			t.Fatalf("tenant %s completed %d, clients observed %d successes", tn.id, ts.Completed, tt.successes)
		}
		if ts.Shed != tt.sheds {
			t.Fatalf("tenant %s shed %d, clients observed %d overload errors", tn.id, ts.Shed, tt.sheds)
		}
		if ts.Cancelled+ts.Expired != tt.ctxErrs {
			t.Fatalf("tenant %s cancelled %d + expired %d != %d client context errors",
				tn.id, ts.Cancelled, ts.Expired, tt.ctxErrs)
		}
		if ts.Admitted != ts.Completed+ts.Failed+ts.Cancelled {
			t.Fatalf("tenant %s admitted %d != completed %d + failed %d + cancelled %d",
				tn.id, ts.Admitted, ts.Completed, ts.Failed, ts.Cancelled)
		}
		if got := ts.Admitted + ts.Shed + ts.Expired; got != tt.requests {
			t.Fatalf("tenant %s accounted for %d requests, clients made %d", tn.id, got, tt.requests)
		}
		t.Logf("tenant %s: %d requests, %d ok, %d shed, %d ctx; coalesce %d leads / %d joins / %d excised",
			tn.id, tt.requests, tt.successes, tt.sheds, tt.ctxErrs,
			ts.Coalesce.Leads, ts.Coalesce.Joins, ts.Coalesce.Excised)
		sumAdmitted += ts.Admitted
		sumShed += ts.Shed
		sumJoins += ts.Coalesce.Joins
	}
	// The tenant ledgers must sum to the shared gate's counters — no
	// request can be double-counted across tenants or slip past both.
	st := s.Stats()
	if st.Admission.Admitted != sumAdmitted {
		t.Fatalf("gate admitted %d, tenant ledgers sum to %d", st.Admission.Admitted, sumAdmitted)
	}
	if st.Admission.Shed != sumShed {
		t.Fatalf("gate shed %d, tenant ledgers sum to %d", st.Admission.Shed, sumShed)
	}
	if sumJoins == 0 {
		t.Fatal("no request ever joined a coalescing batch: the windows never overlapped")
	}
	if st.Admission.InFlight != 0 || st.Admission.InUse != 0 || st.Admission.QueueLen != 0 {
		t.Fatalf("requests still wedged in the gate: %+v", st.Admission)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close after soak: %v (wedged requests?)", err)
	}

	// With every tenant quiesced, the live-mutation ledgers must
	// reconcile exactly — and with no fault source, nothing may have
	// failed or degraded. Rebuilds cancelled by Close are the only legal
	// non-swap terminal outcome.
	for ti, tn := range tenants {
		lst := lives[ti].Stats()
		if lst.Mutations == 0 {
			t.Fatalf("tenant %s: mutator never landed a mutation", tn.id)
		}
		if lst.Mutations != muts[ti].ok.Load() {
			t.Fatalf("tenant %s: live recorded %d mutations, mutator landed %d",
				tn.id, lst.Mutations, muts[ti].ok.Load())
		}
		if lst.Epoch != uint64(lst.Mutations+lst.Swaps) {
			t.Fatalf("tenant %s: epoch %d != mutations %d + swaps %d",
				tn.id, lst.Epoch, lst.Mutations, lst.Swaps)
		}
		if lst.RebuildsStarted != lst.Swaps+lst.RebuildsFailed+lst.RebuildsCancelled {
			t.Fatalf("tenant %s: rebuilds started %d != swaps %d + failed %d + cancelled %d",
				tn.id, lst.RebuildsStarted, lst.Swaps, lst.RebuildsFailed, lst.RebuildsCancelled)
		}
		if lst.Degraded || lst.RebuildsFailed != 0 {
			t.Fatalf("tenant %s: rebuilds failed (%d) or pipeline degraded (%v) with no fault source",
				tn.id, lst.RebuildsFailed, lst.Degraded)
		}
		t.Logf("tenant %s live: %d mutations, %d swaps, %d rebuilds (%d cancelled), overlay %d rows at close",
			tn.id, lst.Mutations, lst.Swaps, lst.RebuildsStarted, lst.RebuildsCancelled,
			lst.OverlayRows+lst.TailRows)
	}
}

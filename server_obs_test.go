package repro_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// obsTestServer builds a decided, warm Server for observability tests:
// the reordered build has landed and the first-call trial has run, so
// requests take the steady-state path.
// Each test passes a distinct seed so its matrix misses the
// process-wide plan cache and triggers a real background build.
func obsTestServer(t *testing.T, seed int64) (*repro.Server, *repro.Dense) {
	t.Helper()
	m := freshScrambled(t, seed)
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{
		DefaultDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	if err := s.Pipeline().WaitPreprocessed(context.Background()); err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 64, 11)
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x); err != nil {
		t.Fatal(err)
	}
	return s, x
}

// Every registered metric family — server-scoped and process-wide —
// must appear in a /metrics scrape of a live server, and the document
// must conform to the Prometheus text grammar. The check is generic:
// it walks both registries' snapshots and requires every series to be
// exposed, so a family added anywhere in the stack is covered without
// editing this test.
func TestServerMetricsFamilies(t *testing.T) {
	s, x := obsTestServer(t, 7001)
	yd := repro.NewRandomDense(s.Pipeline().Pipeline().Matrix().Rows, 64, 12)
	if _, err := serverSDDMM(context.Background(), s, repro.DefaultTenant, x, yd); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	samples, err := obs.ParseSamples(body)
	if err != nil {
		t.Fatalf("exposition unparseable: %v", err)
	}

	// Every series either registry knows about must be on the wire:
	// counters and gauges under their own key, histograms as the
	// derived _sum/_count/+Inf-bucket series.
	checked := 0
	for _, reg := range []*obs.Registry{s.Registry(), obs.Default()} {
		for _, smp := range reg.Snapshot() {
			labelSuffix := smp.Key()[len(smp.Name):]
			keys := []string{smp.Key()}
			if smp.Kind == obs.KindHistogram {
				keys = []string{
					smp.Name + "_sum" + labelSuffix,
					smp.Name + "_count" + labelSuffix,
				}
			}
			for _, key := range keys {
				if _, ok := samples[key]; !ok {
					t.Errorf("/metrics missing registered series %q", key)
				}
			}
			checked++
		}
	}
	if t.Failed() {
		t.Fatalf("scrape body:\n%s", body)
	}
	if checked < 40 {
		t.Fatalf("only %d registered series checked; registries look empty", checked)
	}

	// And the families this growth step introduced must actually be
	// registered — the generic walk above can't notice a family that
	// was never created.
	for _, want := range []string{
		`spmmrr_kernel_imbalance_count{kernel="spmm_aspt"}`,
		`spmmrr_kernel_chunk_seconds_count{kernel="spmm_aspt"}`,
		`spmmrr_kernel_nnz_total{kernel="spmm_aspt"}`,
		`spmmrr_kernel_passes_total{kernel="spmm_aspt"}`,
		`spmmrr_kernel_gflops{kernel="spmm_aspt"}`,
		`spmmrr_kernel_gbps{kernel="spmm_aspt"}`,
		"spmmrr_autotune_mispick_total",
		`spmmrr_slo_p50_seconds{tenant="default"}`,
		`spmmrr_slo_p99_seconds{tenant="default"}`,
		`spmmrr_slo_burn_rate{tenant="default"}`,
		`spmmrr_slo_violations_total{tenant="default"}`,
		`spmmrr_tenant_mispicks_total{tenant="default"}`,
		`spmmrr_live_mutate_seconds_count{kind="reskin",tenant="default"}`,
		`spmmrr_live_mutate_seconds_count{kind="overlay",tenant="default"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Fatalf("/metrics missing required series %q:\n%s", want, body)
		}
	}

	// Request latency observed by the SLO window must be reflected in
	// the quantile gauges once traffic has flowed.
	if samples[`spmmrr_slo_p99_seconds{tenant="default"}`] <= 0 {
		t.Fatalf("p99 gauge is zero after served traffic")
	}
}

// spmmrr_live_mutate_seconds books each published mutation once, under
// the path it took: a value-only batch on a clean base under "reskin",
// a structural one under "overlay".
func TestServerLiveMutateSecondsByKind(t *testing.T) {
	s, _ := obsTestServer(t, 7012)
	ctx := context.Background()
	m := s.Live().Matrix()
	r := 0
	for m.RowLen(r) == 0 {
		r++
	}
	if err := s.Mutate(ctx, repro.Mutation{UpdateValues: []repro.ValueUpdate{
		{Row: r, Col: int(m.RowCols(r)[0]), Val: 0.5},
	}}); err != nil {
		t.Fatal(err)
	}
	cur := s.Live().Matrix()
	if err := s.Mutate(ctx, repro.Mutation{ReplaceRows: []repro.RowUpdate{{Row: r, Def: repro.RowDef{
		Cols: append([]int32(nil), cur.RowCols(r)...),
		Vals: append([]float32(nil), cur.RowVals(r)...),
	}}}}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := obs.ParseSamples(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"reskin", "overlay"} {
		key := `spmmrr_live_mutate_seconds_count{kind="` + kind + `",tenant="default"}`
		if got := samples[key]; got != 1 {
			t.Errorf("%s = %v, want 1", key, got)
		}
	}
}

// A served request's trace must account for at least 95% of its wall
// time as a span union: admission wait, retry attempts, kernel
// execution, and output permutation leave no unexplained gaps.
func TestServerTraceCoversWallTime(t *testing.T) {
	s, x := obsTestServer(t, 7002)
	for i := 0; i < 5; i++ {
		if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x); err != nil {
			t.Fatal(err)
		}
	}

	best, seen := 0.0, 0
	for _, tr := range s.Traces().Snapshot() {
		if tr.Op != "spmm_into" || tr.Err != "" || tr.WallUS <= 0 {
			continue
		}
		seen++
		if r := float64(tr.SpanCoverageUS()) / float64(tr.WallUS); r > best {
			best = r
		}
	}
	if seen == 0 {
		t.Fatalf("no finished spmm traces in the ring")
	}
	if best < 0.95 {
		t.Fatalf("best span-union coverage %.3f < 0.95 over %d traces", best, seen)
	}
}

// The trace ring is served at /debug/traces as JSON, each entry
// carrying op, spans, and the routing-decision annotations.
func TestServerDebugTracesEndpoint(t *testing.T) {
	s, x := obsTestServer(t, 7003)
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces = %d", rec.Code)
	}
	var traces []obs.TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("/debug/traces is not a trace list: %v\n%s", err, rec.Body.String())
	}
	var spmm, build *obs.TraceSnapshot
	for i := range traces {
		switch traces[i].Op {
		case "spmm_into":
			if spmm == nil {
				spmm = &traces[i]
			}
		case "build_reordered":
			build = &traces[i]
		}
	}
	if spmm == nil {
		t.Fatalf("no spmm trace served: %s", rec.Body.String())
	}
	if len(spmm.Spans) == 0 || spmm.Attrs["outcome"] != "completed" {
		t.Fatalf("spmm trace incomplete: %+v", *spmm)
	}
	if path := spmm.Attrs["path"]; path != "reordered" && path != "plain" && path != "fallback" {
		t.Fatalf("spmm trace has no routing path annotation: %+v", spmm.Attrs)
	}
	if build == nil {
		t.Fatalf("background build trace not in ring: %s", rec.Body.String())
	}
	if build.Attrs["outcome"] != "ok" || build.Attrs["stages"] == "" {
		t.Fatalf("build trace missing outcome/stages: %+v", build.Attrs)
	}
	var hasStage bool
	for _, sp := range build.Spans {
		if strings.HasPrefix(sp.Name, "stage_") {
			hasStage = true
		}
	}
	if !hasStage {
		t.Fatalf("build trace has no per-stage spans: %+v", build.Spans)
	}
}

// A coalesced request's trace carries the coalescer's two spans below
// its attempt: coalesce_wait (submit to launch) and coalesce_run (launch
// to done). An idle server launches a lone request at once, so its wait
// is near zero even with an hour-long window.
func TestServerCoalescedTraceSpans(t *testing.T) {
	m := freshScrambled(t, 7008)
	s := degradedServer(t, m, repro.ServerConfig{CoalesceWindow: time.Hour})
	x := repro.NewRandomDense(m.Cols, 4, 12)
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x); err != nil {
		t.Fatal(err)
	}
	var spmm *obs.TraceSnapshot
	traces := s.Traces().Snapshot()
	for i := range traces {
		if traces[i].Op == "spmm_into" {
			spmm = &traces[i]
			break
		}
	}
	if spmm == nil {
		t.Fatal("no spmm_into trace in the ring")
	}
	got := map[string]obs.SpanSnapshot{}
	for _, sp := range spmm.Spans {
		got[sp.Name] = sp
	}
	attempt, okA := got["attempt"]
	wait, okW := got["coalesce_wait"]
	run, okR := got["coalesce_run"]
	if !okA || !okW || !okR {
		t.Fatalf("trace spans = %+v, want attempt, coalesce_wait and coalesce_run", spmm.Spans)
	}
	if wait.DurUS > 20_000 {
		t.Fatalf("idle launch waited %dus, want near 0", wait.DurUS)
	}
	end := func(sp obs.SpanSnapshot) int64 { return sp.StartUS + sp.DurUS }
	// Offsets are truncated to microseconds independently, hence the
	// one-microsecond slack.
	if wait.StartUS+1 < attempt.StartUS || end(run) > end(attempt)+1 || run.StartUS+1 < end(wait) {
		t.Fatalf("coalesce spans %+v / %+v not ordered inside attempt %+v", wait, run, attempt)
	}
}

// Plan stage timings surface through the server's online pipeline and
// agree with the winning pipeline's plan.
func TestServerPlanStagesSurfaced(t *testing.T) {
	s, _ := obsTestServer(t, 7004)
	st := s.Pipeline().PlanStages()
	if st.Total() <= 0 {
		t.Fatalf("PlanStages total %v, want > 0", st.Total())
	}
	if got := s.Pipeline().Pipeline().PlanStages(); got != st {
		t.Fatalf("winner pipeline stage timings disagree: %+v vs %+v", st, got)
	}
}

// Explain must join the whole decision chain for an online tenant:
// plan identity, autotuner verdict, trial outcome, attribution, and
// SLO state, all consistent with the public accessors.
func TestServerExplainOnline(t *testing.T) {
	s, _ := obsTestServer(t, 7005)
	ex, err := s.Explain(repro.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Tenant != repro.DefaultTenant || ex.Mode != "online" {
		t.Fatalf("identity: %+v", ex)
	}
	if ex.PlanFingerprint == "" {
		t.Fatal("no plan fingerprint")
	}
	if got := s.Pipeline().PlanFingerprint(); got != ex.PlanFingerprint {
		t.Fatalf("fingerprint disagrees with pipeline: %q vs %q", ex.PlanFingerprint, got)
	}
	if !ex.Trial.Decided {
		t.Fatal("trial not decided in explain")
	}
	if ex.Trial.ReorderedSeconds <= 0 || ex.Trial.PlainSeconds <= 0 {
		t.Fatalf("trial times missing: %+v", ex.Trial)
	}
	if ex.Kernel == "" || ex.KernelVerdict == "" {
		t.Fatalf("kernel sections empty: %+v", ex)
	}
	if got := s.Pipeline().Kernel().String(); ex.Kernel != got {
		t.Fatalf("explain kernel %q, server serves %q", ex.Kernel, got)
	}
	if ex.NNZ <= 0 || ex.Rows <= 0 {
		t.Fatalf("shape missing: %+v", ex)
	}
	if len(ex.Attribution) == 0 {
		t.Fatal("no kernel attribution after served traffic")
	}
	for _, a := range ex.Attribution {
		if a.Passes <= 0 || a.NNZ <= 0 || a.GFLOPS <= 0 || a.MeanImbalance < 1 {
			t.Fatalf("implausible attribution row: %+v", a)
		}
	}
	if ex.SLO.P99Seconds <= 0 || ex.SLO.Violations != 0 || ex.SLO.Burning {
		t.Fatalf("SLO section after clean traffic: %+v", ex.SLO)
	}
	if want := kernels.StripPath(); ex.SIMD != want {
		t.Fatalf("explain simd %q, kernels run on %q", ex.SIMD, want)
	}

	if _, err := s.Explain("no-such-tenant"); !errors.Is(err, repro.ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v", err)
	}
}

// A sharded tenant's explain document reports the panel layout: the
// panels must tile the row space exactly, each with a valid kernel.
func TestServerExplainSharded(t *testing.T) {
	m := freshScrambled(t, 7006)
	s, err := repro.NewServer(context.Background(), m, repro.DefaultConfig(), repro.ServerConfig{
		DefaultDeadline: 5 * time.Second,
		ShardNNZ:        m.NNZ()/4 + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	ex, err := s.Explain(repro.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Mode != "sharded" {
		t.Fatalf("mode = %q", ex.Mode)
	}
	sh := s.Sharded()
	if sh == nil || len(ex.Panels) != sh.Panels() || len(ex.Panels) < 2 {
		t.Fatalf("panels = %d, sharded reports %v", len(ex.Panels), sh)
	}
	next := 0
	for i, p := range ex.Panels {
		if p.Lo != next || p.Hi <= p.Lo || p.Kernel == "" {
			t.Fatalf("panel %d malformed: %+v", i, p)
		}
		next = p.Hi
	}
	if next != m.Rows {
		t.Fatalf("panels cover %d rows of %d", next, m.Rows)
	}
	if ex.PlanFingerprint == "" || ex.Trial.Decided {
		t.Fatalf("sharded identity/trial: %+v", ex)
	}
}

// The /debug/explain and /debug/events endpoints serve the documents
// over HTTP: explain resolves the default tenant when none is named,
// 404s unknown tenants, and the event ledger validates against the
// schema and records the trial decision.
func TestServerExplainAndEventsEndpoints(t *testing.T) {
	s, _ := obsTestServer(t, 7007)
	h := s.ObsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/explain", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/explain = %d: %s", rec.Code, rec.Body.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("explain is not JSON: %v\n%s", err, rec.Body.String())
	}
	for _, key := range []string{
		"tenant", "mode", "plan_fingerprint", "kernel", "kernel_verdict",
		"features", "trial", "mispicks", "live", "integrity",
		"kernel_attribution", "simd", "slo",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("explain missing %q: %v", key, doc)
		}
	}
	if doc["tenant"] != repro.DefaultTenant {
		t.Fatalf("bare /debug/explain resolved tenant %v", doc["tenant"])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/explain?tenant=ghost", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/explain?tenant=ghost = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/events = %d", rec.Code)
	}
	if err := obs.ValidateEvents(rec.Body.Bytes()); err != nil {
		t.Fatalf("event ledger invalid: %v\n%s", err, rec.Body.String())
	}
	var evs []obs.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	var trial *obs.Event
	for i := range evs {
		if evs[i].Type == obs.EventTrialWinner {
			trial = &evs[i]
		}
	}
	if trial == nil {
		t.Fatalf("no trial_winner event in ledger: %+v", evs)
	}
	if trial.Tenant != repro.DefaultTenant || trial.PlanFP == "" || trial.Kernel == "" || trial.Value <= 0 {
		t.Fatalf("trial_winner event incomplete: %+v", *trial)
	}
	if got := s.Pipeline().PlanFingerprint(); trial.PlanFP != got {
		t.Fatalf("event fingerprint %q, pipeline %q", trial.PlanFP, got)
	}
}

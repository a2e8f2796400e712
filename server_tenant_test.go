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
)

// waitForStat polls cond until it holds or the deadline passes.
func waitForStat(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// holdServerPass serves one SpMM for the default tenant of s and returns
// once its kernel pass is blocked in a kernels.exec hook: the batch in
// flight that later coalesced requests gather behind. The returned
// release unblocks every kernel pass, removes the hook and waits for the
// held request, which must succeed; it is idempotent and also runs at
// test cleanup, so a failing test never wedges the kernel pool.
func holdServerPass(t *testing.T, s *repro.Server, x *repro.Dense) (release func()) {
	t.Helper()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	restore := faultinject.Set("kernels.exec", func() error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})
	held := make(chan error, 1)
	go func() {
		y, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
		if err == nil {
			repro.PutDense(y)
		}
		held <- err
	}()
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			restore()
			if err := <-held; err != nil {
				t.Errorf("held request: %v", err)
			}
		})
	}
	t.Cleanup(release)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("held request never reached the kernel")
	}
	return release
}

// TestServerCoalescesConcurrentSpMM: concurrent SpMM calls inside one
// coalescing window run as a single batched pass (leads + joins
// reconcile with the submission count, with at least one join), and
// every waiter still gets exactly its own product — including waiters
// with different dense widths sharing one batch. The calls gather
// behind a request held in its kernel pass (the first call, so the
// held pass is the §4 trial), so they overlap however fast the pass
// and however busy the host.
func TestServerCoalescesConcurrentSpMM(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 3001)
	warmKernelPool(t, m)

	const n = 8
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{
		CoalesceWindow: 10 * time.Second, // launch via maxOps, never the window
		CoalesceMaxOps: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	repro.BuildReorderedForTest(t, s.Pipeline(), 8)

	xs := make([]*repro.Dense, n)
	want := make([]*repro.Dense, n)
	for i := range xs {
		xs[i] = repro.NewRandomDense(m.Cols, 1+i%3, int64(100+i))
		w, err := repro.SpMM(m, xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	release := holdServerPass(t, s, repro.NewRandomDense(m.Cols, 2, 31)) // one admitted and completed request
	got := make([]*repro.Dense, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = serverSpMM(context.Background(), s, repro.DefaultTenant, xs[i])
		}(i)
	}
	waitForStat(t, func() bool {
		ts, _ := s.TenantStats(repro.DefaultTenant)
		return ts.Coalesce.Joins == n-1
	})
	release()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		for j := range want[i].Data {
			if math.Abs(float64(want[i].Data[j]-got[i].Data[j])) > 1e-4 {
				t.Fatalf("waiter %d diverges at %d", i, j)
			}
		}
	}

	ts, ok := s.TenantStats(repro.DefaultTenant)
	if !ok {
		t.Fatal("no stats for the default tenant")
	}
	if ts.Coalesce.Leads+ts.Coalesce.Joins != n+1 {
		t.Fatalf("leads %d + joins %d != %d submissions beside the held request", ts.Coalesce.Leads, ts.Coalesce.Joins, n)
	}
	if ts.Coalesce.Joins == 0 {
		t.Fatalf("no request joined a batch: %d concurrent calls all led", n)
	}
	if ts.Admitted != n+1 || ts.Completed != n+1 {
		t.Fatalf("tenant stats = %+v, want %d admitted and completed beside the held request", ts, n)
	}
}

// TestServerCoalesceExcisedWaiterCancelled: a waiter whose context dies
// while its batch is still open returns the context error promptly,
// lands in the Cancelled counter, and the batch serves the surviving
// waiters — the per-tenant reconciliation identities hold throughout.
// The batch opens behind a request held in its kernel pass.
func TestServerCoalesceExcisedWaiterCancelled(t *testing.T) {
	m := freshScrambled(t, 3002)
	warmKernelPool(t, m)

	s := degradedServer(t, m, repro.ServerConfig{
		CoalesceWindow: 10 * time.Second, // launch via maxOps, never the window
		CoalesceMaxOps: 4,
	})

	x := repro.NewRandomDense(m.Cols, 2, 31)
	release := holdServerPass(t, s, x) // one admitted and completed request
	ctx, cancel := context.WithCancel(context.Background())
	excised := make(chan error, 1)
	go func() {
		_, err := serverSpMM(ctx, s, repro.DefaultTenant, x)
		excised <- err
	}()
	waitForStat(t, func() bool {
		ts, _ := s.TenantStats(repro.DefaultTenant)
		return ts.Coalesce.Leads == 2
	})
	cancel()
	select {
	case err := <-excised:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("excised waiter = %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("excised waiter did not return until the window elapsed")
	}

	// Three survivors fill the still-open batch (the excised waiter's
	// dead slot still counts toward maxOps until launch compacts it) and
	// launch it early; its pass runs once the held pass is released.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
			if err == nil {
				repro.PutDense(y)
			}
			errs[i] = err
		}(i)
	}
	waitForStat(t, func() bool {
		ts, _ := s.TenantStats(repro.DefaultTenant)
		return ts.Coalesce.Joins == 3
	})
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("surviving waiter %d: %v", i, err)
		}
	}

	ts, _ := s.TenantStats(repro.DefaultTenant)
	if ts.Cancelled != 1 || ts.Coalesce.Excised != 1 {
		t.Fatalf("stats = %+v, want exactly one cancelled/excised waiter", ts)
	}
	if ts.Admitted != ts.Completed+ts.Failed+ts.Cancelled {
		t.Fatalf("admitted %d != completed %d + failed %d + cancelled %d",
			ts.Admitted, ts.Completed, ts.Failed, ts.Cancelled)
	}
	if ts.Admitted != 4+1 || ts.Completed != 3+1 {
		t.Fatalf("stats = %+v, want 4 admitted / 3 completed beside the held request", ts)
	}
}

// TestServerCoalesceBadShapeDoesNotPoisonBatch: a malformed operand is
// rejected before it can join a batch, so concurrent well-formed
// requests coalescing in the same window still succeed.
func TestServerCoalesceBadShapeDoesNotPoisonBatch(t *testing.T) {
	m := freshScrambled(t, 3003)
	warmKernelPool(t, m)

	s := degradedServer(t, m, repro.ServerConfig{
		CoalesceWindow: 100 * time.Millisecond,
		CoalesceMaxOps: 2,
	})

	x := repro.NewRandomDense(m.Cols, 2, 41)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	bad := repro.NewDense(m.Rows+1, 2) // wrong row count for the output
	var wg sync.WaitGroup
	var badErr error
	goods := make([]*repro.Dense, 2)
	goodErrs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		badErr = s.SpMMInto(context.Background(), bad, x)
	}()
	for i := range goods {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			goods[i], goodErrs[i] = serverSpMM(context.Background(), s, repro.DefaultTenant, x)
		}(i)
	}
	wg.Wait()
	if badErr == nil {
		t.Fatal("malformed SpMMInto succeeded")
	}
	for i := range goods {
		if goodErrs[i] != nil {
			t.Fatalf("well-formed waiter %d failed alongside a malformed one: %v", i, goodErrs[i])
		}
		for j := range want.Data {
			if math.Abs(float64(want.Data[j]-goods[i].Data[j])) > 1e-4 {
				t.Fatalf("waiter %d diverges at %d", i, j)
			}
		}
		repro.PutDense(goods[i])
	}
	ts, _ := s.TenantStats(repro.DefaultTenant)
	if ts.Failed != 1 || ts.Completed != 2 {
		t.Fatalf("stats = %+v, want 1 failed / 2 completed", ts)
	}
}

// TestServerCoalesceMutationMidWindowStaleShape: a structural mutation
// landing between a batch's join phase and its launch must fail every
// now-stale waiter with its own typed ErrStaleShape — the launch-time
// re-validation gate, not a batch-wide error or a silently misshapen
// kernel pass — and the very next correctly-shaped request must
// succeed. The batch gathers behind a request held in its kernel pass
// and launches when that pass returns.
func TestServerCoalesceMutationMidWindowStaleShape(t *testing.T) {
	m := freshScrambled(t, 3005)
	warmKernelPool(t, m)

	const n = 3
	s := degradedServer(t, m, repro.ServerConfig{
		CoalesceWindow: 10 * time.Second, // launch via the held pass's return
		CoalesceMaxOps: n + 4,            // never op count
	})

	x := repro.NewRandomDense(m.Cols, 2, 51)
	release := holdServerPass(t, s, x)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y := repro.NewDense(m.Rows, 2) // sized for the pre-mutation shape
			errs[i] = s.SpMMInto(context.Background(), y, x)
		}(i)
	}
	// Wait until the batch has formed behind the held request (one lead,
	// the rest joined), then grow the matrix while it is still open.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ts, _ := s.TenantStats(repro.DefaultTenant)
		if ts.Coalesce.Leads == 1+1 && ts.Coalesce.Joins == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never formed: %+v", ts.Coalesce)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Mutate(context.Background(), repro.Mutation{AppendRows: []repro.RowDef{{Cols: []int32{0}, Vals: []float32{1}}}}); err != nil {
		t.Fatalf("mid-window append: %v", err)
	}
	release()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, repro.ErrStaleShape) {
			t.Fatalf("waiter %d: got %v, want ErrStaleShape", i, err)
		}
	}
	ts, _ := s.TenantStats(repro.DefaultTenant)
	if ts.Coalesce.Invalid != n {
		t.Fatalf("invalid operands = %d, want %d (every waiter re-validated at launch)", ts.Coalesce.Invalid, n)
	}

	// The new shape serves: output sized for the grown matrix.
	cur := s.Live().Matrix()
	if cur.Rows != m.Rows+1 {
		t.Fatalf("live matrix has %d rows, want %d", cur.Rows, m.Rows+1)
	}
	want, err := repro.SpMM(cur, x)
	if err != nil {
		t.Fatal(err)
	}
	y := repro.NewDense(cur.Rows, 2)
	if err := s.SpMMInto(context.Background(), y, x); err != nil {
		t.Fatalf("post-mutation request: %v", err)
	}
	for j := range want.Data {
		if math.Abs(float64(want.Data[j]-y.Data[j])) > 1e-4 {
			t.Fatalf("post-mutation result diverges at %d", j)
		}
	}
	repro.PutDense(want)
}

// TestServerShardedDefaultTenant: a default matrix over ShardNNZ serves
// through nnz-balanced row panels — results match the plain reference
// for SpMM (coalesced and not) and SDDMM, and the accessors reflect the
// sharded topology.
func TestServerShardedDefaultTenant(t *testing.T) {
	m := freshScrambled(t, 3004)
	warmKernelPool(t, m)

	target := m.NNZ() / 4
	cfg := repro.DefaultConfig()
	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{
		ShardNNZ:       target,
		CoalesceWindow: 200 * time.Millisecond,
		CoalesceMaxOps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	if s.Pipeline() != nil {
		t.Fatal("sharded default tenant still exposes an online pipeline")
	}
	sh := s.Sharded()
	if sh == nil {
		t.Fatal("Sharded() = nil for a matrix over ShardNNZ")
	}
	if sh.Panels() < 2 {
		t.Fatalf("matrix with %d nnz over target %d built %d panels", m.NNZ(), target, sh.Panels())
	}
	// Explain resolves kernel and plan without an online pipeline.
	if _, err := s.Explain(repro.DefaultTenant); err != nil {
		t.Fatal(err)
	}

	ts, ok := s.TenantStats(repro.DefaultTenant)
	if !ok || !ts.Sharded || ts.Panels != sh.Panels() {
		t.Fatalf("tenant stats = %+v, want sharded with %d panels", ts, sh.Panels())
	}

	// Coalesced concurrent SpMM through the sharded unit.
	const n = 4
	xs := make([]*repro.Dense, n)
	want := make([]*repro.Dense, n)
	for i := range xs {
		xs[i] = repro.NewRandomDense(m.Cols, 3, int64(200+i))
		w, err := repro.SpMM(m, xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	start := make(chan struct{})
	got := make([]*repro.Dense, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = serverSpMM(context.Background(), s, repro.DefaultTenant, xs[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		for j := range want[i].Data {
			if math.Abs(float64(want[i].Data[j]-got[i].Data[j])) > 1e-4 {
				t.Fatalf("sharded coalesced SpMM %d diverges at %d", i, j)
			}
		}
	}

	x := xs[0]
	y := repro.NewRandomDense(m.Rows, 3, 77)
	wantO, err := repro.SDDMM(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	gotO, err := serverSDDMM(context.Background(), s, repro.DefaultTenant, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantO.Val {
		if math.Abs(float64(wantO.Val[i]-gotO.Val[i])) > 1e-3 {
			t.Fatalf("sharded SDDMM diverges at %d", i)
		}
	}
}

// TestServerTenantRoutingAndStats: AddTenant serves a second matrix
// through the shared gate; tenant-routed calls hit the right matrix,
// unknown ids and duplicate registrations fail typed, and per-tenant
// stats stay isolated.
func TestServerTenantRoutingAndStats(t *testing.T) {
	ma := freshScrambled(t, 3005)
	warmKernelPool(t, ma)
	mb, err := repro.GenerateScrambledClusters(512, 512, 32, 3006)
	if err != nil {
		t.Fatal(err)
	}

	s := degradedServer(t, ma, repro.ServerConfig{})
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Nanosecond
	if err := s.AddTenant(context.Background(), "b", mb, cfg, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant(context.Background(), "b", mb, cfg, 1); !errors.Is(err, repro.ErrTenantExists) {
		t.Fatalf("duplicate AddTenant = %v, want ErrTenantExists", err)
	}
	if got := s.Tenants(); len(got) != 2 || got[0] != "b" || got[1] != repro.DefaultTenant {
		t.Fatalf("Tenants() = %v", got)
	}

	xb := repro.NewRandomDense(mb.Cols, 5, 51)
	want, err := repro.SpMM(mb, xb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := serverSpMM(context.Background(), s, "b", xb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("tenant SpMM diverges at %d", i)
		}
	}
	repro.PutDense(got)

	// The default tenant's matrix has different dimensions; routing to it
	// with b's operand must fail shape validation, not corrupt memory.
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, xb); err == nil {
		t.Fatal("default-tenant SpMM accepted another tenant's operand shape")
	}
	if _, err := serverSpMM(context.Background(), s, "nope", xb); !errors.Is(err, repro.ErrUnknownTenant) {
		t.Fatalf("unknown tenant = %v, want ErrUnknownTenant", err)
	}
	if err := s.SpMMIntoTenant(context.Background(), "nope", nil, xb); !errors.Is(err, repro.ErrUnknownTenant) {
		t.Fatalf("unknown tenant SpMMInto = %v, want ErrUnknownTenant", err)
	}

	// SDDMM routed to the added tenant.
	yb := repro.NewRandomDense(mb.Rows, 5, 52)
	wantO, err := repro.SDDMM(mb, xb, yb)
	if err != nil {
		t.Fatal(err)
	}
	outB := mb.Clone()
	if err := s.SDDMMIntoTenant(context.Background(), "b", outB, xb, yb); err != nil {
		t.Fatal(err)
	}
	for i := range wantO.Val {
		if math.Abs(float64(wantO.Val[i]-outB.Val[i])) > 1e-3 {
			t.Fatalf("tenant SDDMM diverges at %d", i)
		}
	}

	tsB, ok := s.TenantStats("b")
	if !ok {
		t.Fatal("no stats for tenant b")
	}
	if tsB.Weight != 4 {
		t.Fatalf("tenant b weight = %d, want 4", tsB.Weight)
	}
	if tsB.Admitted != 2 || tsB.Completed != 2 {
		t.Fatalf("tenant b stats = %+v, want 2 admitted/completed", tsB)
	}
	tsD, _ := s.TenantStats(repro.DefaultTenant)
	if tsD.Failed != 1 {
		t.Fatalf("default tenant stats = %+v, want the misrouted call counted failed", tsD)
	}
	all := s.AllTenantStats()
	if len(all) != 2 || all[0].ID != "b" || all[1].ID != repro.DefaultTenant {
		t.Fatalf("AllTenantStats order = %v", []string{all[0].ID, all[1].ID})
	}
	if _, ok := s.TenantStats("nope"); ok {
		t.Fatal("TenantStats for an unknown id reported ok")
	}
}

// Concurrent AddTenant calls racing on one id must resolve to exactly
// one registration: the losers get ErrTenantExists, and none of them
// registers the tenant's metric series a second time (which panics).
func TestServerAddTenantConcurrentDuplicate(t *testing.T) {
	ma := freshScrambled(t, 3007)
	mb, err := repro.GenerateScrambledClusters(256, 256, 16, 3008)
	if err != nil {
		t.Fatal(err)
	}
	s := degradedServer(t, ma, repro.ServerConfig{})
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Nanosecond

	const n = 8
	errs := make([]error, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			errs[i] = s.AddTenant(context.Background(), "dup", mb, cfg, 1)
		}(i)
	}
	start.Done()
	wg.Wait()
	ok := 0
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case !errors.Is(err, repro.ErrTenantExists):
			t.Fatalf("AddTenant %d = %v, want nil or ErrTenantExists", i, err)
		}
	}
	if ok != 1 {
		t.Fatalf("%d of %d concurrent AddTenant calls succeeded, want exactly 1", ok, n)
	}
}

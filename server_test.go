package repro_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/testutil"
)

// degradedServer builds a Server whose reordered build, started by one
// call because every width passes the reorder gate, is doomed by an
// already-expired budget, so every request deterministically serves the
// no-reorder plan — the simplest substrate for admission and retry
// tests that do not care about reordered-path routing. Its reordered
// path would open on the first failure charged to it, so any charge
// from the degraded path shows at once.
func degradedServer(t *testing.T, m *repro.Matrix, scfg repro.ServerConfig) *repro.Server {
	t.Helper()
	repro.SetGateL2ForTest(t, 0)
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Nanosecond
	s, err := repro.NewServerWithPathForTest(context.Background(), m, cfg, scfg, 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s.Pipeline(), 8)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// pathStats returns the default tenant's plan-health ledger, which
// carries its reordered path's counters.
func pathStats(t *testing.T, s *repro.Server) integrity.Stats {
	t.Helper()
	ts, ok := s.TenantStats(repro.DefaultTenant)
	if !ok {
		t.Fatal("no default tenant")
	}
	return ts.Integrity
}

func TestServerServesCorrectResults(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 2001)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s.Pipeline(), 8)
	x := repro.NewRandomDense(m.Cols, 16, 21)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("server SpMM diverges at %d", i)
		}
	}
	y := repro.NewRandomDense(m.Rows, 16, 22)
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
			t.Fatalf("server SDDMM diverges at %d", i)
		}
	}
	st := s.Stats()
	if st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 2 completed / 0 failed", st)
	}
	if st.Admission.Admitted != 2 || st.Admission.InFlight != 0 {
		t.Fatalf("admission stats = %+v, want 2 admitted, 0 in flight", st.Admission)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x); !errors.Is(err, repro.ErrServerClosed) {
		t.Fatalf("SpMM after Close = %v, want ErrServerClosed", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// With the gate held by one in-flight request and a zero-length wait
// queue, the next request must be shed immediately with a typed
// ErrOverloaded carrying the queue-depth snapshot.
func TestServerOverloadSheds(t *testing.T) {
	m := freshScrambled(t, 2002)
	warmKernelPool(t, m)

	s := degradedServer(t, m, repro.ServerConfig{MaxInFlight: 1, MaxQueue: -1})

	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	restore := faultinject.Set("kernels.exec", func() error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})
	defer restore()
	// Kernel workers block inside the hook; they must be released even on
	// a failing assertion path or every later test wedges on the pool.
	defer release()

	x := repro.NewRandomDense(m.Cols, 8, 23)
	firstDone := make(chan error, 1)
	go func() {
		_, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
		firstDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the kernel")
	}

	_, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	if !errors.Is(err, repro.ErrOverloaded) {
		t.Fatalf("second request = %v, want ErrOverloaded", err)
	}
	var ov *repro.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("shed error is %T, want *OverloadError", err)
	}
	if ov.InUse != 1 || ov.Capacity != 1 || ov.QueueCap != 0 {
		t.Fatalf("overload snapshot = %+v", ov)
	}

	release()
	if err := <-firstDone; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
	st := s.Stats()
	if st.Admission.Shed != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 shed / 1 completed", st)
	}
}

// A request whose context carries no deadline gets the configured
// DefaultDeadline; a kernel stalled past it must return
// context.DeadlineExceeded (and never be retried).
func TestServerDefaultDeadline(t *testing.T) {
	m := freshScrambled(t, 2003)
	warmKernelPool(t, m)

	s := degradedServer(t, m, repro.ServerConfig{DefaultDeadline: 20 * time.Millisecond})

	// Force the multi-chunk dispatch path so there IS a chunk boundary to
	// observe the deadline at, even on a single-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Stall every kernel chunk past the deadline: whichever chunk-boundary
	// context check runs next observes the expired deadline.
	restore := faultinject.Set("kernels.exec", func() error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	defer restore()

	x := repro.NewRandomDense(m.Cols, 8, 24)
	_, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled request = %v, want DeadlineExceeded", err)
	}
	st := s.Stats()
	if st.Retries != 0 {
		t.Fatalf("context error was retried %d times", st.Retries)
	}
	if st.Cancelled != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 1 cancelled, 0 failed", st)
	}
}

// Transient faults are retried with backoff: a kernel that fails its
// first attempt and then recovers must yield a successful request with
// a non-zero retry count.
func TestServerRetriesTransientFaults(t *testing.T) {
	m := freshScrambled(t, 2004)
	warmKernelPool(t, m)

	s := degradedServer(t, m, repro.ServerConfig{MaxAttempts: 3})

	x := repro.NewRandomDense(m.Cols, 8, 25)
	want, err := repro.SpMM(m, x) // reference, before any fault is armed
	if err != nil {
		t.Fatal(err)
	}

	var failuresLeft atomic.Int64
	failuresLeft.Store(1)
	restore := faultinject.Set("kernels.exec", func() error {
		if failuresLeft.Add(-1) >= 0 {
			return faultinject.Err
		}
		return nil
	})
	defer restore()

	got, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	if err != nil {
		t.Fatalf("request with one transient fault = %v, want success via retry", err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("retried result diverges at %d", i)
		}
	}
	st := s.Stats()
	if st.Retries < 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want >=1 retry, 1 completed", st)
	}
}

// The full reordered-path lifecycle over a live pipeline: consecutive
// failures on the reordered path open it, the tenant's traffic routes to
// the no-reorder fallback (and succeeds once the fault clears), and
// after the cooldown a successful probe closes the path again. Fallback
// routing and the tenant's PathRejected counter must agree exactly.
func TestServerBreakerTripsAndRecovers(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 2005)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	const cooldown = 50 * time.Millisecond
	s, err := repro.NewServerWithPathForTest(context.Background(), m, cfg,
		repro.ServerConfig{MaxAttempts: 4}, 2, cooldown)
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s.Pipeline(), 8)
	if deg, cause := s.Pipeline().Degraded(); deg {
		t.Fatalf("unexpected degradation: %v", cause)
	}

	x := repro.NewRandomDense(m.Cols, 8, 26)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}

	// Request 1 under a persistent kernel fault: attempts 1–2 fail on the
	// reordered path and open it; attempts 3–4 are rejected by the open
	// path, route to the fallback, and fail there too (same fault site),
	// exhausting the retry budget.
	restore := faultinject.ErrorAt("kernels.exec")
	_, err = serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	restore()
	if !errors.Is(err, faultinject.Err) {
		t.Fatalf("request under persistent fault = %v, want faultinject.Err", err)
	}
	st, path := s.Stats(), pathStats(t, s)
	if path.PathTrips != 1 {
		t.Fatalf("path stats after fault burst = %+v, want 1 trip", path)
	}
	if st.Fallbacks != 2 || st.Fallbacks != path.PathRejected {
		t.Fatalf("fallbacks = %d, path rejected = %d; want 2 and equal",
			st.Fallbacks, path.PathRejected)
	}

	// Request 2, fault cleared but path still open (within cooldown):
	// served by the no-reorder fallback, correctly.
	got, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	if err != nil {
		t.Fatalf("fallback-path request = %v", err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("fallback result diverges at %d", i)
		}
	}
	st, path = s.Stats(), pathStats(t, s)
	if st.Fallbacks != 3 || st.Fallbacks != path.PathRejected {
		t.Fatalf("post-recovery fallbacks = %d, rejected = %d; want 3 and equal",
			st.Fallbacks, path.PathRejected)
	}

	// Request 3 after the cooldown: admitted as the half-open probe,
	// succeeds on the reordered path, and closes the path.
	time.Sleep(2 * cooldown)
	got, err = serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	if err != nil {
		t.Fatalf("probe request = %v", err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("probe result diverges at %d", i)
		}
	}
	st, path = s.Stats(), pathStats(t, s)
	if path.Path != integrity.PathClosed || path.PathCloses != 1 || path.PathHalfOpens != 1 {
		t.Fatalf("path did not recover: %+v", path)
	}
	if st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want 2 completed / 1 failed", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// A degraded pipeline serves the no-reorder plan without consulting its
// reordered path: faults there must not open it, and nothing is ever
// counted as a fallback (there is no reordered path to fall back from).
func TestServerDegradedBypassesBreaker(t *testing.T) {
	m := freshScrambled(t, 2006)
	warmKernelPool(t, m)

	s := degradedServer(t, m, repro.ServerConfig{MaxAttempts: 1})

	restore := faultinject.ErrorAt("kernels.exec")
	x := repro.NewRandomDense(m.Cols, 8, 27)
	for i := 0; i < 3; i++ {
		if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x); !errors.Is(err, faultinject.Err) {
			t.Fatalf("request %d = %v, want faultinject.Err", i, err)
		}
	}
	restore()
	st, path := s.Stats(), pathStats(t, s)
	if path.PathTrips != 0 || path.PathFailures != 0 || st.Fallbacks != 0 {
		t.Fatalf("degraded-path faults leaked into the reordered path: %+v, fallbacks=%d",
			path, st.Fallbacks)
	}
	if !st.Degraded {
		t.Fatalf("stats did not report degradation")
	}
	if _, err := serverSpMM(context.Background(), s, repro.DefaultTenant, x); err != nil {
		t.Fatalf("post-fault request: %v", err)
	}
}

// countPlanFiles counts the snapshot files in dir.
func countPlanFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".plan") {
			n++
		}
	}
	return n
}

// The acceptance path for durable persistence: a server with PlanDir
// snapshots its plans on Close, and a restarted process warm starts
// from them — the first reordered request is served without rebuilding
// the plan (proven by poisoning the LSH stage, which only a from-scratch
// build would execute).
func TestServerWarmStartFromSnapshot(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	dir := t.TempDir()
	repro.SetPlanCacheCapacity(8)
	defer repro.SetPlanCacheCapacity(64)

	m := freshScrambled(t, 2007)
	warmKernelPool(t, m)

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s1, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{PlanDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s1.Pipeline(), 8)
	if deg, cause := s1.Pipeline().Degraded(); deg {
		t.Fatalf("first server degraded: %v", cause)
	}
	x := repro.NewRandomDense(m.Cols, 16, 28)
	want, err := serverSpMM(context.Background(), s1, repro.DefaultTenant, x)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := countPlanFiles(t, dir); n < 2 {
		t.Fatalf("Close snapshotted %d plans, want both variants", n)
	}

	// "Restart": a fresh empty cache, then a new server over the same
	// matrix with the LSH stage poisoned. Only a from-scratch reordered
	// build touches LSH, so a degradation here would mean the snapshot
	// was not used.
	repro.SetPlanCacheCapacity(8)
	if n, err := repro.LoadPlanDir(dir); err != nil || n < 2 {
		t.Fatalf("LoadPlanDir = %d, %v; want >=2 snapshot files", n, err)
	}
	defer faultinject.ErrorAt("lsh.signatures")()

	s2, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{PlanDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s2.Pipeline(), 8)
	if deg, cause := s2.Pipeline().Degraded(); deg {
		t.Fatalf("restarted server rebuilt instead of warm starting: %v", cause)
	}
	got, err := serverSpMM(context.Background(), s2, repro.DefaultTenant, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("warm-started result diverges at %d", i)
		}
	}
	if cs := repro.PlanCacheStats(); cs.DiskHits < 2 {
		t.Fatalf("plan cache stats = %+v, want >=2 disk hits", cs)
	}
	if err := s2.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// The acceptance path for corruption: every snapshot file is bit-flipped
// or truncated, the restarted server must detect the damage, never apply
// the plans, and transparently rebuild from scratch.
func TestServerCorruptSnapshotFallsBack(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	dir := t.TempDir()
	repro.SetPlanCacheCapacity(8)
	defer repro.SetPlanCacheCapacity(64)

	m := freshScrambled(t, 2008)
	warmKernelPool(t, m)

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s1, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{PlanDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s1.Pipeline(), 8)
	x := repro.NewRandomDense(m.Cols, 16, 29)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Damage every snapshot: alternate truncation and bit flips.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for i, e := range entries {
		if !strings.HasSuffix(e.Name(), ".plan") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && len(raw) > 8 {
			raw = raw[:len(raw)/2]
		} else {
			raw[len(raw)/2] ^= 0x20
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatalf("no snapshot files to damage")
	}

	repro.SetPlanCacheCapacity(8)
	s2, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{PlanDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s2.Pipeline(), 8)
	if deg, cause := s2.Pipeline().Degraded(); deg {
		t.Fatalf("corrupt snapshots degraded the rebuild: %v", cause)
	}
	got, err := serverSpMM(context.Background(), s2, repro.DefaultTenant, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("post-corruption result diverges at %d (corrupt plan applied?)", i)
		}
	}
	cs := repro.PlanCacheStats()
	if cs.DiskHits != 0 {
		t.Fatalf("corrupt snapshot produced a disk hit: %+v", cs)
	}
	if cs.DiskMisses < 1 {
		t.Fatalf("disk tier was never probed: %+v", cs)
	}
	if err := s2.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// Close drains: in-flight requests finish, queued requests are
// rejected, and Close returns only once the gate is idle.
func TestServerCloseDrainsInFlight(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m := freshScrambled(t, 2009)
	warmKernelPool(t, m)

	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Nanosecond
	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{MaxInFlight: 1, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, s.Pipeline(), 8)

	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	restore := faultinject.Set("kernels.exec", func() error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})
	defer restore()
	defer release()

	x := repro.NewRandomDense(m.Cols, 8, 30)
	var wg sync.WaitGroup
	var inFlightErr, queuedErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, inFlightErr = serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the kernel")
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, queuedErr = serverSpMM(context.Background(), s, repro.DefaultTenant, x)
	}()
	// Wait until the second request is actually queued behind the gate.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Admission.QueueLen == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	closeDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closeDone <- s.Close(ctx)
	}()
	// Close must be blocked on the held request, not returning early.
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if inFlightErr != nil {
		t.Fatalf("in-flight request during Close: %v", inFlightErr)
	}
	if !errors.Is(queuedErr, repro.ErrServerClosed) {
		t.Fatalf("queued request during Close = %v, want ErrServerClosed", queuedErr)
	}
}

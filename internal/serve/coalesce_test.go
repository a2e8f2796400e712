package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// heldOp is the operand holdBatches runs alone to keep a batch in
// flight.
const heldOp = -1

// batchRecorder collects the batches a coalescer launches. A batch of
// heldOp alone is not recorded: it blocks until it takes a token from
// release, or release closes (see holdBatches).
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]int
	err     error

	entered chan struct{} // one token per held batch now running
	release chan struct{} // a send lets one held batch return; close lets all
}

func (r *batchRecorder) run(items []int) error {
	if len(items) == 1 && items[0] == heldOp && r.release != nil {
		r.entered <- struct{}{}
		<-r.release
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := append([]int(nil), items...)
	r.batches = append(r.batches, cp)
	return r.err
}

// holdBatches runs heldOp n times on the coalescer c (whose run is
// rec.run), one arrival after another, and returns once all n batches
// are blocked inside their runs: the batches in flight that later
// arrivals launch beside or gather behind. Each arrival must launch at
// once, so n must not exceed the cap (runtime.GOMAXPROCS). A send on
// rec.release lets one held batch return; the returned release lets
// every held batch return and waits for their waiters. It is idempotent
// and also runs at test cleanup, so a failing test never leaks a waiter.
func holdBatches(t *testing.T, c *Coalescer[int], rec *batchRecorder, n int) (release func()) {
	t.Helper()
	rec.entered, rec.release = make(chan struct{}, n), make(chan struct{})
	held := make(chan error, n)
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(rec.release)
			for i := 0; i < n; i++ {
				select {
				case err := <-held:
					if err != nil {
						t.Errorf("held batch: %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Errorf("held batch did not return")
					return
				}
			}
		})
	}
	t.Cleanup(release)
	for i := 0; i < n; i++ {
		go func() { held <- c.Do(context.Background(), heldOp) }()
		select {
		case <-rec.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("held operand %d of %d did not launch at once", i+1, n)
		}
	}
	return release
}

// holdBatch holds the cap, runtime.GOMAXPROCS(0) batches, so that every
// later arrival gathers into the pending batch.
func holdBatch(t *testing.T, c *Coalescer[int], rec *batchRecorder) (release func()) {
	t.Helper()
	return holdBatches(t, c, rec, runtime.GOMAXPROCS(0))
}

// statsSince is the counter delta from base to now.
func statsSince(c *Coalescer[int], base CoalescerStats) CoalescerStats {
	st := c.Stats()
	return CoalescerStats{
		Leads:   st.Leads - base.Leads,
		Joins:   st.Joins - base.Joins,
		Excised: st.Excised - base.Excised,
		Invalid: st.Invalid - base.Invalid,
	}
}

func (r *batchRecorder) snapshot() [][]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]int(nil), r.batches...)
}

// TestCoalescerWindowBatches: concurrent arrivals inside one window
// coalesce into a single run. The batch forms behind the cap of batches
// held in flight past the window, so the window expiry launches it.
func TestCoalescerWindowBatches(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(200*time.Millisecond, 0, rec.run, nil)
	release := holdBatch(t, c, rec)
	defer release()
	base := c.Stats()
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Do(context.Background(), i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	batches := rec.snapshot()
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	if total != n {
		t.Fatalf("processed %d operands, want %d", total, n)
	}
	if len(batches) != 1 {
		t.Fatalf("a 200ms window split %d concurrent arrivals into %d batches", n, len(batches))
	}
	st := statsSince(c, base)
	if st.Leads != 1 || st.Joins != int64(n-1) {
		t.Fatalf("stats = %+v, want 1 lead and %d joins", st, n-1)
	}
}

// TestCoalescerMaxOpsLaunchesEarly: a full batch does not wait out the
// window — the filling waiter launches it synchronously.
func TestCoalescerMaxOpsLaunchesEarly(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(time.Hour, 4, rec.run, nil)
	const n = 8
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Do(context.Background(), i); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("full batches waited for the window (%v)", elapsed)
	}
	total := 0
	for _, b := range rec.snapshot() {
		if len(b) > 4 {
			t.Fatalf("batch of %d exceeds maxOps 4", len(b))
		}
		total += len(b)
	}
	if total != n {
		t.Fatalf("processed %d operands, want %d", total, n)
	}
}

// TestCoalescerExcisePreLaunch: a waiter whose context dies before
// launch returns its context error promptly, and the batch runs with
// only the surviving operands. The batch gathers behind the held
// batches and launches when they return.
func TestCoalescerExcisePreLaunch(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(400*time.Millisecond, 0, rec.run, nil)
	release := holdBatch(t, c, rec)
	defer release()
	base := c.Stats()
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() { errA <- c.Do(ctxA, 1) }()
	waitFor(t, func() bool { return statsSince(c, base).Leads == 1 })
	errB := make(chan error, 1)
	go func() { errB <- c.Do(context.Background(), 2) }()
	waitFor(t, func() bool { return statsSince(c, base).Joins == 1 })
	cancelA()
	select {
	case err := <-errA:
		if err != context.Canceled {
			t.Fatalf("excised waiter = %v, want context.Canceled", err)
		}
	case <-time.After(300 * time.Millisecond):
		t.Fatal("excised waiter did not return before the window elapsed")
	}
	release()
	if err := <-errB; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	batches := rec.snapshot()
	if len(batches) != 1 || len(batches[0]) != 1 || batches[0][0] != 2 {
		t.Fatalf("batch after excision = %v, want [[2]]", batches)
	}
	if st := statsSince(c, base); st.Excised != 1 {
		t.Fatalf("excised counter = %d, want 1", st.Excised)
	}
}

// TestCoalescerEmptyBatchSkipsRun: if every waiter is excised, the
// window fires on an empty batch and the run function never executes.
// The batch gathers behind held batches that outlive the window.
func TestCoalescerEmptyBatchSkipsRun(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(50*time.Millisecond, 0, rec.run, nil)
	release := holdBatch(t, c, rec)
	defer release()
	base := c.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Do(ctx, 1) }()
	waitFor(t, func() bool { return statsSince(c, base).Leads == 1 })
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("excised lead = %v, want context.Canceled", err)
	}
	time.Sleep(120 * time.Millisecond) // let the window fire on the empty batch
	if batches := rec.snapshot(); len(batches) != 0 {
		t.Fatalf("empty batch still ran: %v", batches)
	}
	release() // the held batches' returns find no pending batch to launch
	if batches := rec.snapshot(); len(batches) != 0 {
		t.Fatalf("empty batch ran after the held batch returned: %v", batches)
	}
}

// TestCoalescerErrorFansOut: a failed batch reports the same error to
// every waiter.
func TestCoalescerErrorFansOut(t *testing.T) {
	sentinel := errors.New("kernel exploded")
	rec := &batchRecorder{err: sentinel}
	c := NewCoalescer(100*time.Millisecond, 0, rec.run, nil)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Do(context.Background(), i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != sentinel {
			t.Fatalf("waiter %d got %v, want the batch error", i, err)
		}
	}
}

// TestCoalescerPostLaunchCancelRides: once the batch has launched, a
// cancelled waiter must NOT return while the run is still writing its
// operand — it rides to completion and reports the batch's outcome.
func TestCoalescerPostLaunchCancelRides(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	c := NewCoalescer(10*time.Millisecond, 0, func(items []int) error {
		close(entered)
		<-release
		return nil
	}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- c.Do(ctx, 1) }()
	<-entered
	cancel()
	select {
	case err := <-errCh:
		t.Fatalf("waiter returned %v while its batch was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("riding waiter = %v, want the batch's nil", err)
	}
}

// TestCoalescerIdleLaunchesAtOnce: with nothing running, a lone request
// launches at once as a batch of one; even an hour-long window adds no
// wait.
func TestCoalescerIdleLaunchesAtOnce(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(time.Hour, 0, rec.run, nil)
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() { done <- c.Do(context.Background(), i) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("idle request %d waited on the window", i)
		}
	}
	if batches := rec.snapshot(); len(batches) != 3 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v, want three batches of one", batches)
	}
	if st := c.Stats(); st.Leads != 3 || st.Joins != 0 {
		t.Fatalf("stats = %+v, want 3 leads and no joins", st)
	}
}

// TestCoalescerLaunchesAtOnceBelowCap: with one batch fewer than the cap
// (runtime.GOMAXPROCS) in flight, an arrival still has a CPU to itself,
// so it launches at once as a batch of one; even an hour-long window
// adds no wait.
func TestCoalescerLaunchesAtOnceBelowCap(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(time.Hour, 0, rec.run, nil)
	holdBatches(t, c, rec, runtime.GOMAXPROCS(0)-1)
	base := c.Stats()
	done := make(chan error, 1)
	go func() { done <- c.Do(context.Background(), 7) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("with %d of %d batches in flight, an arrival waited on the window",
			runtime.GOMAXPROCS(0)-1, runtime.GOMAXPROCS(0))
	}
	if batches := rec.snapshot(); len(batches) != 1 || len(batches[0]) != 1 || batches[0][0] != 7 {
		t.Fatalf("batches = %v, want [[7]]", batches)
	}
	if st := statsSince(c, base); st.Leads != 1 || st.Joins != 0 {
		t.Fatalf("stats = %+v, want 1 lead and no joins", st)
	}
}

// TestCoalescerGathersAtCapUntilAnyHeldReturns: with the cap of batches
// in flight, arrivals gather into one pending batch, and the return of
// any one held batch launches it, long before its window; the other held
// batches are still running.
func TestCoalescerGathersAtCapUntilAnyHeldReturns(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(time.Hour, 0, rec.run, nil)
	release := holdBatch(t, c, rec)
	base := c.Stats()
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Do(context.Background(), i)
		}(i)
	}
	waitFor(t, func() bool { st := statsSince(c, base); return st.Leads+st.Joins == n })
	if st := statsSince(c, base); st.Leads != 1 || st.Joins != n-1 {
		t.Fatalf("stats = %+v, want 1 lead and %d joins at the cap", st, n-1)
	}
	time.Sleep(20 * time.Millisecond)
	if batches := rec.snapshot(); len(batches) != 0 {
		t.Fatalf("an arrival ran while the cap of batches was in flight: %v", batches)
	}
	rec.release <- struct{}{} // one held batch returns
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("pending batch did not launch when a held batch returned")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if batches := rec.snapshot(); len(batches) != 1 || len(batches[0]) != n {
		t.Fatalf("batches = %v, want one batch of %d", batches, n)
	}
	release()
}

// TestCoalescerOneProcSequence: at GOMAXPROCS = 1 the cap is one, so the
// coalescer runs the one-batch-in-flight sequence: an idle arrival
// launches at once, arrivals while it runs gather into one pending batch
// that launches when it returns, and the next arrival at the idle
// coalescer launches at once again.
func TestCoalescerOneProcSequence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec := &batchRecorder{}
	c := NewCoalescer(time.Hour, 0, rec.run, nil)
	release := holdBatch(t, c, rec) // the idle launch, held
	if st := c.Stats(); st.Leads != 1 || st.Joins != 0 {
		t.Fatalf("stats = %+v, want the held batch as the one lead", st)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Do(context.Background(), i); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		}(i)
		waitFor(t, func() bool { st := c.Stats(); return st.Leads+st.Joins == int64(1+i) })
	}
	if st := c.Stats(); st.Leads != 2 || st.Joins != 1 {
		t.Fatalf("stats = %+v, want 2 leads and 1 join behind the held batch", st)
	}
	if batches := rec.snapshot(); len(batches) != 0 {
		t.Fatalf("an arrival ran beside the held batch at one P: %v", batches)
	}
	release()
	wg.Wait()
	if err := c.Do(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	batches := rec.snapshot()
	if len(batches) != 2 || len(batches[0]) != 2 || len(batches[1]) != 1 || batches[1][0] != 3 {
		t.Fatalf("batches = %v, want one pending batch of two, then [3] alone", batches)
	}
	if st := c.Stats(); st.Leads != 3 || st.Joins != 1 {
		t.Fatalf("stats = %+v, want 3 leads and 1 join", st)
	}
}

// TestCoalescerPendingLaunchesWhenHeldReturns: N arrivals while the cap
// of batches is held form exactly one pending batch, which launches when
// the held batches return, long before its window.
func TestCoalescerPendingLaunchesWhenHeldReturns(t *testing.T) {
	rec := &batchRecorder{}
	c := NewCoalescer(time.Hour, 0, rec.run, nil)
	release := holdBatch(t, c, rec)
	base := c.Stats()
	const n = 5
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Do(context.Background(), i)
		}(i)
	}
	waitFor(t, func() bool { st := statsSince(c, base); return st.Leads+st.Joins == n })
	if batches := rec.snapshot(); len(batches) != 0 {
		t.Fatalf("pending batch ran while the held batch was in flight: %v", batches)
	}
	release()
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("pending batch did not launch when the held batch returned")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if batches := rec.snapshot(); len(batches) != 1 || len(batches[0]) != n {
		t.Fatalf("batches = %v, want one batch of %d", batches, n)
	}
	if st := statsSince(c, base); st.Leads != 1 || st.Joins != n-1 {
		t.Fatalf("stats = %+v, want 1 lead and %d joins", st, n-1)
	}
}

// TestCoalescerWindowCapsWaitBehindOverrun: when the held batches overrun
// the window, the pending batch launches at window expiry and runs
// concurrently with them, so the window bounds the wait it adds.
func TestCoalescerWindowCapsWaitBehindOverrun(t *testing.T) {
	const window = 50 * time.Millisecond
	rec := &batchRecorder{}
	c := NewCoalescer(window, 0, rec.run, nil)
	release := holdBatch(t, c, rec)
	defer release()
	const n = 3
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Do(context.Background(), i)
		}(i)
	}
	wg.Wait() // the held batches are still blocked: only the window launched these
	if elapsed := time.Since(start); elapsed < window {
		t.Fatalf("pending batch launched after %v, before the %v window", elapsed, window)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	total := 0
	for _, b := range rec.snapshot() {
		total += len(b)
	}
	if total != n {
		t.Fatalf("processed %d operands, want %d", total, n)
	}
}

// TestCoalescerFinishedWaitersSkipNextPass: when a batch returns and
// hands off to the pending batch, the finished batch's waiter returns at
// once; it does not run, or wait out, the next pass. The returning batch
// here was launched inline by its own waiter, the case where running
// the hand-off inline would make that waiter pay two passes; the other
// cap-1 batches are held, so its pass is the one that fills the cap.
func TestCoalescerFinishedWaitersSkipNextPass(t *testing.T) {
	rec := &batchRecorder{}
	entered := make(chan int, 2)
	gates := map[int]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	c := NewCoalescer(time.Hour, 0, func(items []int) error {
		if items[0] == heldOp {
			return rec.run(items)
		}
		entered <- items[0]
		<-gates[items[0]]
		return nil
	}, nil)
	defer close(gates[2])
	others := runtime.GOMAXPROCS(0) - 1
	holdBatches(t, c, rec, others)
	errA := make(chan error, 1)
	go func() { errA <- c.Do(context.Background(), 1) }()
	select {
	case got := <-entered:
		if got != 1 {
			t.Fatalf("first pass ran %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the arrival that fills the cap did not launch at once")
	}
	errB := make(chan error, 1)
	go func() { errB <- c.Do(context.Background(), 2) }()
	waitFor(t, func() bool { return c.Stats().Leads == int64(others)+2 })
	close(gates[1])
	select {
	case err := <-errA:
		if err != nil {
			t.Fatalf("finished waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("finished batch's waiter is waiting on the next pass")
	}
	select {
	case got := <-entered:
		if got != 2 {
			t.Fatalf("hand-off ran %d, want 2", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending batch did not launch when the running batch returned")
	}
	select {
	case err := <-errB:
		t.Fatalf("pending waiter returned %v while its pass was still running", err)
	default:
	}
}

// TestCoalescerTraceSpans: a waiter whose context carries a trace records
// coalesce_wait (submit to launch) and coalesce_run (launch to done);
// the wait is near zero for a launch at once and spans the held batches
// for a pending one.
func TestCoalescerTraceSpans(t *testing.T) {
	spans := func(tr *obs.Trace) map[string]obs.SpanSnapshot {
		m := map[string]obs.SpanSnapshot{}
		for _, sp := range tr.Snapshot().Spans {
			m[sp.Name] = sp
		}
		return m
	}
	rec := &batchRecorder{}
	c := NewCoalescer(time.Hour, 0, rec.run, nil)

	idle := obs.NewTrace("idle")
	if err := c.Do(obs.WithTrace(context.Background(), idle), 1); err != nil {
		t.Fatal(err)
	}
	idle.Finish(nil)
	got := spans(idle)
	wait, okW := got["coalesce_wait"]
	run, okR := got["coalesce_run"]
	if !okW || !okR {
		t.Fatalf("idle trace spans = %+v, want coalesce_wait and coalesce_run", got)
	}
	if wait.DurUS > 5000 {
		t.Fatalf("idle launch waited %dus, want near 0", wait.DurUS)
	}
	if run.StartUS < wait.StartUS+wait.DurUS-1 {
		t.Fatalf("coalesce_run starts at %dus, before coalesce_wait ends (%+v)", run.StartUS, wait)
	}

	const hold = 30 * time.Millisecond
	release := holdBatch(t, c, rec)
	pending := obs.NewTrace("pending")
	done := make(chan error, 1)
	go func() { done <- c.Do(obs.WithTrace(context.Background(), pending), 2) }()
	waitFor(t, func() bool { return c.Stats().Leads == int64(runtime.GOMAXPROCS(0))+2 })
	time.Sleep(hold)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	pending.Finish(nil)
	if w := spans(pending)["coalesce_wait"]; w.DurUS < hold.Microseconds() {
		t.Fatalf("pending waiter's coalesce_wait = %dus, want at least the %v hold", w.DurUS, hold)
	}
}

// TestCoalescerChaos hammers the coalescer with concurrent waiters and
// aggressive deadlines; run under -race this is the memory-model check
// for the join/excise/launch races. Every operand must be either
// processed exactly once or excised exactly once.
func TestCoalescerChaos(t *testing.T) {
	var mu sync.Mutex
	processed := map[int]int{}
	c := NewCoalescer(500*time.Microsecond, 8, func(items []int) error {
		mu.Lock()
		for _, it := range items {
			processed[it]++
		}
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		return nil
	}, nil)
	const n = 256
	var wg sync.WaitGroup
	excised := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*200*time.Microsecond)
				defer cancel()
			}
			err := c.Do(ctx, i)
			switch err {
			case nil:
			case context.DeadlineExceeded, context.Canceled:
				excised[i] = true
			default:
				t.Errorf("waiter %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		got := processed[i]
		if excised[i] {
			if got != 0 {
				t.Fatalf("operand %d was excised yet processed %d times", i, got)
			}
		} else if got != 1 {
			t.Fatalf("operand %d processed %d times, want exactly once", i, got)
		}
	}
	st := c.Stats()
	if st.Leads+st.Joins != n {
		t.Fatalf("leads %d + joins %d != %d submissions", st.Leads, st.Joins, n)
	}
	_ = fmt.Sprintf("%+v", st)
}

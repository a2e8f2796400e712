package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionImmediateAndRelease(t *testing.T) {
	a := NewAdmission(4, 2, nil)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := a.Acquire(ctx, 1); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	st := a.Stats()
	if st.InFlight != 4 || st.InUse != 4 || st.Admitted != 4 {
		t.Fatalf("stats = %+v", st)
	}
	a.Release(1)
	if err := a.Acquire(ctx, 1); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(1, 1, nil)
	ctx := context.Background()
	if err := a.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// One waiter fills the queue.
	queued := make(chan error, 1)
	go func() { queued <- a.Acquire(ctx, 1) }()
	waitFor(t, func() bool { return a.Stats().QueueLen == 1 })
	// The next request must shed with a typed, stat-carrying error.
	err := a.Acquire(ctx, 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var ov *Overload
	if !errors.As(err, &ov) {
		t.Fatalf("err %T does not carry *Overload", err)
	}
	if ov.QueueLen != 1 || ov.QueueCap != 1 || ov.InUse != 1 {
		t.Fatalf("overload stats = %+v", ov)
	}
	if st := a.Stats(); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
	a.Release(1)
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestAdmissionFIFONoBarging(t *testing.T) {
	a := NewAdmission(4, 8, nil)
	ctx := context.Background()
	if err := a.Acquire(ctx, 4); err != nil { // saturate
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(id int, weight int64) {
		waitFor(t, func() bool { return a.Stats().QueueLen == id })
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Acquire(ctx, weight); err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			a.Release(weight)
		}()
	}
	// Heavy first, light second: after the release the heavy waiter
	// fills the whole gate, so the light one — which would fit right
	// now — must NOT overtake it, and the grant order is serialized.
	enqueue(0, 4)
	enqueue(1, 1)
	waitFor(t, func() bool { return a.Stats().QueueLen == 2 })
	a.Release(4)
	wg.Wait()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("wakeup order = %v, want [0 1]", order)
	}
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	a := NewAdmission(1, 4, nil)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.Acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	st := a.Stats()
	if st.Expired != 1 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v, want Expired 1, empty queue", st)
	}
	a.Release(1)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("gate wedged after expiry: %v", err)
	}
}

func TestAdmissionWeightClamping(t *testing.T) {
	a := NewAdmission(4, 0, nil)
	// An outsized request degrades to whole-gate exclusivity, not deadlock.
	if err := a.Acquire(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want overload while clamped giant holds the gate", err)
	}
	a.Release(100)
	if err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionCloseAndDrain(t *testing.T) {
	a := NewAdmission(2, 4, nil)
	ctx := context.Background()
	if err := a.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.Acquire(ctx, 2) }()
	waitFor(t, func() bool { return a.Stats().QueueLen == 1 })

	a.Close()
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued waiter after Close: %v, want ErrClosed", err)
	}
	if err := a.Acquire(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("new acquire after Close: %v, want ErrClosed", err)
	}

	// Drain blocks until the in-flight request releases.
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		drained <- a.Drain(dctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the in-flight request finished", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.Release(1)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestAdmissionConcurrentStress(t *testing.T) {
	a := NewAdmission(8, 16, nil)
	var peak atomic.Int64
	var inUse atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 200; i++ {
				w := int64(g%3 + 1)
				if err := a.Acquire(ctx, w); err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					t.Errorf("acquire: %v", err)
					return
				}
				cur := inUse.Add(w)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				inUse.Add(-w)
				a.Release(w)
			}
		}(g)
	}
	wg.Wait()
	if p := peak.Load(); p > 8 {
		t.Fatalf("weighted capacity violated: peak in-use weight %d > 8", p)
	}
	st := a.Stats()
	if st.InUse != 0 || st.InFlight != 0 || st.QueueLen != 0 {
		t.Fatalf("gate not empty after stress: %+v", st)
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	errTransient := errors.New("transient")
	calls := 0
	retries, err := Retry(context.Background(),
		RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond},
		func(error) bool { return true },
		func(int) error {
			calls++
			if calls < 3 {
				return errTransient
			}
			return nil
		})
	if err != nil || retries != 2 || calls != 3 {
		t.Fatalf("retries=%d calls=%d err=%v, want 2/3/nil", retries, calls, err)
	}
}

func TestRetryNonTransientStops(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	retries, err := Retry(context.Background(),
		RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond},
		func(err error) bool { return false },
		func(int) error { calls++; return permanent })
	if !errors.Is(err, permanent) || retries != 0 || calls != 1 {
		t.Fatalf("retries=%d calls=%d err=%v, want 0/1/permanent", retries, calls, err)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	transient := errors.New("transient")
	calls := 0
	retries, err := Retry(context.Background(),
		RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond},
		func(error) bool { return true },
		func(int) error { calls++; return transient })
	if !errors.Is(err, transient) || retries != 3 || calls != 4 {
		t.Fatalf("retries=%d calls=%d err=%v, want 3/4/transient", retries, calls, err)
	}
}

func TestRetryNeverRetriesContextErrors(t *testing.T) {
	calls := 0
	_, err := Retry(context.Background(),
		RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond},
		func(error) bool { return true }, // even a lying classifier
		func(int) error { calls++; return context.DeadlineExceeded })
	if !errors.Is(err, context.DeadlineExceeded) || calls != 1 {
		t.Fatalf("calls=%d err=%v, want 1/DeadlineExceeded", calls, err)
	}
}

func TestRetryCancelledDuringBackoff(t *testing.T) {
	transient := errors.New("transient")
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Retry(ctx,
			RetryPolicy{MaxAttempts: 1000, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
			func(error) bool { return true },
			func(int) error { calls++; return transient })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want Canceled", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("retry loop did not observe cancellation")
	}
}

func TestRetryBackoffBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 50, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}.withDefaults()
	for n := 1; n < 64; n++ {
		for i := 0; i < 32; i++ {
			if d := p.backoff(n); d < 0 || d > 8*time.Millisecond {
				t.Fatalf("backoff(%d) = %v outside [0, 8ms]", n, d)
			}
		}
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

package serve

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Coalescer batches concurrent requests for the same downstream
// resource into one execution, group-commit style, but only once every
// CPU already runs one of its batches. While fewer than
// runtime.GOMAXPROCS(0) of its batches are in flight (the cap, read at
// each arrival), a request launches at once as a batch of one on the
// caller's goroutine: a new pass there has a CPU to itself, so gathering
// would only add wait. At the cap, arrivals gather into a single pending
// batch, which launches at the earliest of three events — a running
// batch returns, the coalescing window expires, or the batch reaches its
// operand cap — and then runs as a single call to the run function. The
// window therefore caps the wait a request can add; it adds none below
// the cap, and batches form only when a new pass would queue for a CPU.
// At GOMAXPROCS = 1 the cap is one: an idle coalescer launches, a busy
// one gathers. A batch counts as in flight from the moment it launches,
// under the same lock that decides the launch, so the cap is exact. Like
// the rest of this package it is generic over the work: T is whatever
// per-request operand the caller's run function consumes (the Server
// uses one Y/X operand pair per request, so a batch is one wide
// column-stacked kernel pass).
//
// Per-waiter contract:
//
//   - Every waiter keeps its own context. A waiter whose context dies
//     *before* the batch launches is excised: it returns ctx.Err()
//     immediately and its operand is dropped from the batch without
//     poisoning the other waiters.
//   - Once the batch has launched, a waiter rides to completion even
//     if its context dies — its operand is already being written by
//     the running batch, so returning early would hand the caller a
//     buffer the batch is still mutating. All waiters of a launched
//     batch share the batch's outcome.
//
// The zero Coalescer is not usable; construct with NewCoalescer.
type Coalescer[T any] struct {
	window   time.Duration
	maxOps   int
	run      func([]T) error
	validate func(T) error // optional per-operand launch-time gate

	mu      sync.Mutex
	cur     *cbatch[T] // pending batch, gathering while the cap is reached
	running int        // launched batches whose run has not returned

	leads   obs.Counter
	joins   obs.Counter
	excised obs.Counter
	invalid obs.Counter
}

// cbatch is one coalescing batch. items/dead are guarded by the
// coalescer's mu until launch; err, start and end are written before
// done closes, so waiters reading them after <-done observe them
// without locking.
type cbatch[T any] struct {
	items    []T
	dead     []bool
	opErr    []error // per-slot validate failure, set at launch under mu
	launched bool
	err      error
	start    time.Time // launch; zero when the batch had no live operand
	end      time.Time // run returned
	done     chan struct{}
	timer    *time.Timer
}

// CoalescerStats is a snapshot of a coalescer's counters.
type CoalescerStats struct {
	Leads   int64 // batches opened (a launch at once or a pending batch's first arrival)
	Joins   int64 // requests that joined an open batch
	Excised int64 // waiters removed pre-launch by context expiry
	Invalid int64 // operands rejected at launch by the validate hook
}

// NewCoalescer returns a coalescer batching up to maxOps requests, each
// waiting at most window for a running batch to return. window must be
// positive; maxOps < 1 means an unbounded batch. A non-nil validate is
// a per-operand gate evaluated at batch launch, under the same lock that
// seals the batch: a mutation that lands between submit and launch
// (e.g. a live matrix changing shape) is caught at the last possible
// moment, the stale operand is excised with its own error, and the rest
// of the batch runs untouched.
func NewCoalescer[T any](window time.Duration, maxOps int, run func([]T) error, validate func(T) error) *Coalescer[T] {
	return &Coalescer[T]{window: window, maxOps: maxOps, run: run, validate: validate}
}

// Stats returns a snapshot of the coalescer's counters.
func (c *Coalescer[T]) Stats() CoalescerStats {
	return CoalescerStats{
		Leads:   c.leads.Value(),
		Joins:   c.joins.Value(),
		Excised: c.excised.Value(),
		Invalid: c.invalid.Value(),
	}
}

// Do submits one operand and blocks until its batch has run (or the
// caller's context dies pre-launch). The error is the batch's: nil
// when the batched run succeeded, the run's error for every waiter of
// a failed batch, or ctx.Err() for an excised waiter. When ctx carries
// a trace, a waiter that saw its batch run records two spans from the
// batch's timestamps: coalesce_wait (submit to launch) and
// coalesce_run (launch to done).
func (c *Coalescer[T]) Do(ctx context.Context, item T) error {
	submit := time.Now()
	c.mu.Lock()
	b := c.cur
	launchNow := false
	if b == nil {
		b = &cbatch[T]{done: make(chan struct{})}
		c.leads.Inc()
		if c.running < runtime.GOMAXPROCS(0) {
			// A CPU has no pass of ours: launch at once as a batch of one
			// — a dead context is excised first, exactly as it would be
			// from a pending batch.
			if err := ctx.Err(); err != nil {
				c.excised.Inc()
				c.mu.Unlock()
				return err
			}
			launchNow = true
		} else {
			// Every CPU runs a pass: gather behind them. The window caps
			// the wait; a running batch's return or a full batch usually
			// launches it first. launch() resolves the race (first in
			// wins) and stops the timer.
			c.cur = b
			b.timer = time.AfterFunc(c.window, func() { c.launch(b) })
		}
	} else {
		c.joins.Inc()
	}
	idx := len(b.items)
	b.items = append(b.items, item)
	b.dead = append(b.dead, false)
	if c.maxOps > 0 && len(b.items) >= c.maxOps && c.cur == b {
		// Full: the waiter that filled the batch pays the launch, not a
		// timer goroutine.
		launchNow = true
	}
	var live []T
	if launchNow {
		// Seal under the lock that decided the launch, so the batch
		// counts as in flight before the next arrival reads running.
		live = c.seal(b)
	}
	c.mu.Unlock()
	if launchNow {
		c.exec(b, live)
	}

	select {
	case <-b.done:
	case <-ctx.Done():
		c.mu.Lock()
		if !b.launched {
			// Pre-launch: excise this waiter. Its slot is marked dead and
			// skipped at launch; the batch itself is unharmed.
			b.dead[idx] = true
			c.excised.Inc()
			c.mu.Unlock()
			return ctx.Err()
		}
		c.mu.Unlock()
		// Launched: the batch is writing into this waiter's operand.
		// Ride to completion and report the batch's outcome.
		<-b.done
	}
	if tr := obs.TraceFrom(ctx); tr != nil && !b.start.IsZero() {
		tr.AddSpan("coalesce_wait", submit, b.start.Sub(submit))
		tr.AddSpan("coalesce_run", b.start, b.end.Sub(b.start))
	}
	return b.waiterErr(idx)
}

// waiterErr is the outcome for the waiter holding slot idx: its own
// validate failure when the launch-time gate rejected it, otherwise the
// batch's shared result. Safe to call only after <-done (opErr and err
// are sealed before done closes).
func (b *cbatch[T]) waiterErr(idx int) error {
	if idx < len(b.opErr) && b.opErr[idx] != nil {
		return b.opErr[idx]
	}
	return b.err
}

// launch runs a batch exactly once: the window timer and a returning
// batch's hand-off race here, first in wins (a batch Do launches itself
// is sealed before either can see it).
func (c *Coalescer[T]) launch(b *cbatch[T]) {
	c.mu.Lock()
	if b.launched {
		c.mu.Unlock()
		return
	}
	live := c.seal(b)
	c.mu.Unlock()
	c.exec(b, live)
}

// seal marks b launched, detaches it if pending, runs the launch-time
// validation and compacts the live operands, counting b in running when
// any remain. c.mu must be held: no mutation can slip between the check
// and the run's snapshot of the live slots. A rejected operand fails
// alone — its slot records the error and is compacted away with the
// dead ones.
func (c *Coalescer[T]) seal(b *cbatch[T]) []T {
	b.launched = true
	if c.cur == b {
		c.cur = nil
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	if v := c.validate; v != nil {
		for i := range b.items {
			if b.dead[i] {
				continue
			}
			if err := v(b.items[i]); err != nil {
				if b.opErr == nil {
					b.opErr = make([]error, len(b.items))
				}
				b.opErr[i] = err
				b.dead[i] = true
				c.invalid.Inc()
			}
		}
	}
	n := 0
	for i := range b.items {
		if !b.dead[i] {
			b.items[n] = b.items[i]
			n++
		}
	}
	if n > 0 {
		c.running++
	}
	return b.items[:n]
}

// exec runs a sealed batch outside the lock and releases its waiters.
// When the run returns, the pending batch (if any) launches on a fresh
// goroutine, so no waiter of this batch waits out the next pass.
func (c *Coalescer[T]) exec(b *cbatch[T], live []T) {
	if len(live) > 0 {
		b.start = time.Now()
		b.err = c.run(live)
		b.end = time.Now()
		c.mu.Lock()
		c.running--
		next := c.cur
		c.mu.Unlock()
		if next != nil {
			go c.launch(next)
		}
	}
	close(b.done)
}

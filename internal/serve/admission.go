// Package serve holds the serving-resilience building blocks composed
// by the top-level Server: weighted admission control with a bounded
// FIFO wait queue, request coalescing, and retry with exponential
// backoff and jitter. The package is deliberately free of any matrix
// or pipeline types — it bounds and routes *work*, whatever the work
// is — so each piece is testable in isolation and reusable by any
// entry point that needs server-grade behaviour.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded is the sentinel matched (with errors.Is) by every
// load-shedding rejection. The concrete error is an *Overload carrying
// the queue-depth statistics at the moment of rejection.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrClosed is returned by Acquire after Close: the admission gate no
// longer admits work.
var ErrClosed = errors.New("serve: admission gate closed")

// Overload is the typed load-shedding error: the request was rejected
// because the in-flight capacity was exhausted and the wait queue was
// full. It wraps ErrOverloaded (test with errors.Is) and reports the
// gate's state at rejection time so callers can export or log it.
type Overload struct {
	InFlight int   // requests currently executing
	InUse    int64 // weight units currently held
	Capacity int64 // total weight capacity
	QueueLen int   // waiters queued at rejection time
	QueueCap int   // wait-queue bound
}

func (e *Overload) Error() string {
	return fmt.Sprintf("serve: overloaded (%d in flight, %d/%d weight, queue %d/%d)",
		e.InFlight, e.InUse, e.Capacity, e.QueueLen, e.QueueCap)
}

// Is makes errors.Is(err, ErrOverloaded) true for *Overload.
func (e *Overload) Is(target error) bool { return target == ErrOverloaded }

// AdmissionStats is a snapshot of the gate's counters and gauges.
type AdmissionStats struct {
	Admitted int64 // requests admitted (immediately or after queueing)
	Shed     int64 // rejected with *Overload (queue full)
	Expired  int64 // left the queue on context deadline/cancellation
	InFlight int   // currently admitted requests
	InUse    int64 // weight units currently held
	Capacity int64
	QueueLen int // currently queued waiters
	QueueCap int
}

// waiter is one queued Acquire. ready is buffered so a grant never
// blocks the releasing goroutine; state is written under the gate's
// lock and disambiguates the grant / close / cancellation races.
type waiter struct {
	weight int64
	ready  chan struct{}
	state  waiterState
}

type waiterState uint8

const (
	waiting  waiterState = iota
	granted              // capacity handed over; holder must Release
	rejected             // woken by Close without a grant
)

// Admission is a weighted semaphore with a bounded FIFO wait queue.
// A request that fits runs immediately; one that does not waits in
// arrival order (no barging: a small request cannot overtake a large
// one, so heavy requests cannot starve). When the queue is full the
// request is shed instantly with *Overload — goroutines never pile up
// behind an overloaded server, they get a typed error to act on.
type Admission struct {
	mu       sync.Mutex
	capacity int64
	queueCap int
	inUse    int64
	inFlight int
	queue    *list.List // of *waiter, front = oldest
	closed   bool
	idle     []chan struct{} // closed when the gate drains empty

	// Counters are obs objects (updated under mu, read atomically), so
	// a registry-backed gate exposes the very objects Stats reads —
	// /metrics and AdmissionStats can never disagree.
	admitted *obs.Counter
	shed     *obs.Counter
	expired  *obs.Counter
	waitHist *obs.Histogram // time from Acquire to admission
}

// NewAdmission returns a gate with the given weight capacity and wait
// queue bound, its counters, gauges and admission-wait histogram
// registered in reg (metric families spmmrr_admission_*). capacity < 1
// is raised to 1; queueCap < 0 is treated as 0 (shed immediately when
// saturated). A nil reg keeps the counters private.
func NewAdmission(capacity int64, queueCap int, reg *obs.Registry) *Admission {
	if capacity < 1 {
		capacity = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	a := &Admission{capacity: capacity, queueCap: queueCap, queue: list.New()}
	if reg == nil {
		a.admitted, a.shed, a.expired = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
		return a
	}
	a.admitted = reg.Counter("spmmrr_admission_admitted_total",
		"Requests admitted through the gate (immediately or after queueing).")
	a.shed = reg.Counter("spmmrr_admission_shed_total",
		"Requests shed with an overload error because the wait queue was full.")
	a.expired = reg.Counter("spmmrr_admission_expired_total",
		"Requests that left the gate on context expiry or shutdown before running.")
	a.waitHist = reg.Histogram("spmmrr_admission_wait_seconds",
		"Time from Acquire to admission, including queueing.", obs.LatencyBuckets())
	reg.GaugeFunc("spmmrr_admission_in_flight",
		"Requests currently admitted and executing.",
		func() float64 { return float64(a.Stats().InFlight) })
	reg.GaugeFunc("spmmrr_admission_weight_in_use",
		"Weight units currently held by admitted requests.",
		func() float64 { return float64(a.Stats().InUse) })
	reg.GaugeFunc("spmmrr_admission_queue_depth",
		"Requests currently waiting in the FIFO queue.",
		func() float64 { return float64(a.Stats().QueueLen) })
	reg.Gauge("spmmrr_admission_weight_capacity",
		"Total weight capacity of the gate.").Set(capacity)
	reg.Gauge("spmmrr_admission_queue_capacity",
		"Bound on the FIFO wait queue.").Set(int64(queueCap))
	return a
}

// Acquire admits a request of the given weight, blocking in FIFO order
// while the gate is saturated. Weights are clamped to [1, capacity] so
// an outsized request degrades to "needs the whole gate" instead of
// deadlocking. It returns nil on admission (pair with Release),
// *Overload when the wait queue is full, ctx.Err() when the context
// expires while queued, and ErrClosed after Close.
func (a *Admission) Acquire(ctx context.Context, weight int64) error {
	if weight < 1 {
		weight = 1
	}
	if weight > a.capacity {
		weight = a.capacity
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	if a.inUse+weight <= a.capacity && a.queue.Len() == 0 {
		a.inUse += weight
		a.inFlight++
		a.admitted.Inc()
		a.mu.Unlock()
		a.waitHist.ObserveSince(start)
		return nil
	}
	if a.queue.Len() >= a.queueCap {
		a.shed.Inc()
		ov := &Overload{
			InFlight: a.inFlight, InUse: a.inUse, Capacity: a.capacity,
			QueueLen: a.queue.Len(), QueueCap: a.queueCap,
		}
		a.mu.Unlock()
		return ov
	}
	w := &waiter{weight: weight, ready: make(chan struct{}, 1)}
	el := a.queue.PushBack(w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		a.mu.Lock()
		defer a.mu.Unlock()
		if w.state == rejected { // woken by Close, not by a grant
			return ErrClosed
		}
		// Admission is counted here — by the waiter that will actually
		// run — not at grant time in releaseLocked, so the counter is
		// monotone even when a grant races a cancellation.
		a.admitted.Inc()
		a.waitHist.ObserveSince(start)
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		defer a.mu.Unlock()
		switch w.state {
		case granted:
			// The grant raced the cancellation: give the capacity back
			// (waking successors) and report the cancellation. The
			// request was never counted admitted (see above).
			a.releaseLocked(weight)
			a.expired.Inc()
		case rejected: // Close got here first; already counted
			return ErrClosed
		default:
			a.queue.Remove(el)
			a.expired.Inc()
		}
		return ctx.Err()
	}
}

// Release returns weight units taken by a successful Acquire. The
// weight must match the clamped weight Acquire charged (callers that
// pass the same value they passed to Acquire are always correct).
func (a *Admission) Release(weight int64) {
	if weight < 1 {
		weight = 1
	}
	if weight > a.capacity {
		weight = a.capacity
	}
	a.mu.Lock()
	a.releaseLocked(weight)
	a.mu.Unlock()
}

// releaseLocked hands freed capacity to queued waiters in FIFO order
// and signals idleness when the gate empties. Caller holds a.mu.
func (a *Admission) releaseLocked(weight int64) {
	a.inUse -= weight
	a.inFlight--
	if a.inUse < 0 { // defensive: mismatched Release
		a.inUse = 0
	}
	if a.inFlight < 0 {
		a.inFlight = 0
	}
	for a.queue.Len() > 0 {
		w := a.queue.Front().Value.(*waiter)
		if a.inUse+w.weight > a.capacity {
			break // strict FIFO: successors must not overtake
		}
		a.queue.Remove(a.queue.Front())
		a.inUse += w.weight
		a.inFlight++
		w.state = granted
		w.ready <- struct{}{}
	}
	if a.inUse == 0 && a.queue.Len() == 0 {
		for _, ch := range a.idle {
			close(ch)
		}
		a.idle = nil
	}
}

// Close stops admitting: queued waiters are woken with ErrClosed-like
// rejection (they observe a closed gate via their context or the next
// Acquire), future Acquires fail fast, and in-flight requests are left
// to finish — pair with Drain to wait for them.
func (a *Admission) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	// Reject everyone still queued: draining means finishing what is
	// *running*, not starting more. The waiter wakes via its ready
	// channel and observes the rejected state.
	for a.queue.Len() > 0 {
		w := a.queue.Front().Value.(*waiter)
		a.queue.Remove(a.queue.Front())
		a.expired.Inc()
		w.state = rejected
		w.ready <- struct{}{}
	}
	if a.inUse == 0 {
		for _, ch := range a.idle {
			close(ch)
		}
		a.idle = nil
	}
}

// Drain blocks until every admitted request has released (and the
// queue is empty) or ctx expires.
func (a *Admission) Drain(ctx context.Context) error {
	a.mu.Lock()
	if a.inUse == 0 && a.queue.Len() == 0 {
		a.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	a.idle = append(a.idle, ch)
	a.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// OverlayWeight scales an admission weight for a request that will be
// served through a live-mutation overlay: the overlay rows are computed
// serially on top of the base kernel pass, so a mutated tenant consumes
// proportionally more of the gate per request. The surcharge is the
// overlay's nonzero fraction of the base, rounded up, so a tiny overlay
// costs one extra unit and an overlay comparable to the base doubles
// the weight. weight passes through unchanged when there is no overlay.
func OverlayWeight(weight, overlayNNZ, baseNNZ int64) int64 {
	if overlayNNZ <= 0 || weight <= 0 {
		return weight
	}
	if baseNNZ <= 0 {
		return 2 * weight
	}
	return weight + (weight*overlayNNZ+baseNNZ-1)/baseNNZ
}

// Stats returns a snapshot of the gate's counters and gauges.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Admitted: a.admitted.Value(), Shed: a.shed.Value(), Expired: a.expired.Value(),
		InFlight: a.inFlight, InUse: a.inUse, Capacity: a.capacity,
		QueueLen: a.queue.Len(), QueueCap: a.queueCap,
	}
}

package serve

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int32

const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: traffic is rejected (routed to the fallback) until the
	// cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed and exactly one probe request is
	// in flight; its outcome closes or re-opens the circuit.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerStats is a snapshot of the breaker's counters.
type BreakerStats struct {
	State     BreakerState
	Trips     int64 // Closed/HalfOpen → Open transitions
	HalfOpens int64 // Open → HalfOpen transitions (probe admitted)
	Closes    int64 // HalfOpen → Closed transitions (probe succeeded)
	Rejected  int64 // Allow() == false while Open or probing
	Failures  int64 // Failure() calls
	Successes int64 // Success() calls
}

// Breaker is a consecutive-failure circuit breaker. Closed, it admits
// everything and trips to Open after `threshold` consecutive failures;
// Open, it rejects until `cooldown` has elapsed, then admits exactly
// one probe (HalfOpen); the probe's success closes the circuit, its
// failure re-opens it for another cooldown. All methods are safe for
// concurrent use.
//
// The caller contract is: if Allow returns true, report the outcome of
// exactly that one attempt with Success or Failure; if it returns
// false, route to the fallback and report nothing.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool // a HalfOpen probe is in flight

	// onTransition, when set, is invoked under mu at every state
	// change (see NewBreaker).
	onTransition func(from, to BreakerState)

	// Counters are obs objects (updated under mu) so a registry-backed
	// breaker serves /metrics from the same memory Stats reads.
	trips     *obs.Counter
	halfOpens *obs.Counter
	closes    *obs.Counter
	rejected  *obs.Counter
	failures  *obs.Counter
	successes *obs.Counter
}

// transitionLocked records a state change and fires the hook. Callers
// hold b.mu.
func (b *Breaker) transitionLocked(to BreakerState) {
	from := b.state
	b.state = to
	if b.onTransition != nil && from != to {
		b.onTransition(from, to)
	}
}

// NewBreaker returns a closed breaker tripping after threshold
// consecutive failures (min 1) and cooling down for cooldown (min 1ms)
// before probing, with its counters and a state gauge registered in reg
// (metric families spmmrr_breaker_*); a nil reg keeps the counters
// private. A non-nil onTransition is invoked at every state change with
// the old and new state, exactly once per transition: it runs under the
// breaker's lock, so it sees transitions in order and must not call
// back into the breaker. The serving stack uses it to emit
// breaker_transition decision events whose count reconciles exactly
// with the trips/half-opens/closes counters.
func NewBreaker(threshold int, cooldown time.Duration, reg *obs.Registry, onTransition func(from, to BreakerState)) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Millisecond
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now, onTransition: onTransition}
	if reg == nil {
		b.trips, b.halfOpens, b.closes = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
		b.rejected, b.failures, b.successes = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
		return b
	}
	b.trips = reg.Counter("spmmrr_breaker_trips_total",
		"Transitions into the Open state.")
	b.halfOpens = reg.Counter("spmmrr_breaker_half_opens_total",
		"Cooldown expiries that admitted a half-open probe.")
	b.closes = reg.Counter("spmmrr_breaker_closes_total",
		"Successful probes that closed the circuit.")
	b.rejected = reg.Counter("spmmrr_breaker_rejected_total",
		"Attempts rejected while Open or while a probe was in flight.")
	b.failures = reg.Counter("spmmrr_breaker_failures_total",
		"Failure reports from the protected path.")
	b.successes = reg.Counter("spmmrr_breaker_successes_total",
		"Success reports from the protected path.")
	reg.GaugeFunc("spmmrr_breaker_state",
		"Breaker automaton state (0=closed, 1=open, 2=half-open).",
		func() float64 { return float64(b.State()) })
	return b
}

// Allow reports whether the protected path may serve this attempt.
// While Open it returns false until the cooldown elapses, at which
// point the calling attempt becomes the half-open probe (true); while
// a probe is in flight every other attempt is rejected.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.transitionLocked(HalfOpen)
			b.probing = true
			b.halfOpens.Inc()
			return true
		}
		b.rejected.Inc()
		return false
	default: // HalfOpen
		if b.probing {
			b.rejected.Inc()
			return false
		}
		// The previous probe resolved but a racer arrived between its
		// report and the state change becoming visible; admit as a new
		// probe.
		b.probing = true
		return true
	}
}

// Success reports a successful attempt on the protected path.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.successes.Inc()
	b.consecutive = 0
	if b.state == HalfOpen {
		b.transitionLocked(Closed)
		b.probing = false
		b.closes.Inc()
	}
}

// Failure reports a failed attempt on the protected path.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures.Inc()
	switch b.state {
	case HalfOpen:
		// The probe failed: straight back to Open for another cooldown.
		b.transitionLocked(Open)
		b.openedAt = b.now()
		b.probing = false
		b.consecutive = 0
		b.trips.Inc()
	case Closed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.transitionLocked(Open)
			b.openedAt = b.now()
			b.consecutive = 0
			b.trips.Inc()
		}
	}
	// Open: a straggler attempt admitted before the trip reported late;
	// it changes nothing.
}

// State returns the current automaton state (Open may lazily become
// HalfOpen only on the next Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns a snapshot of the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State: b.state, Trips: b.trips.Value(), HalfOpens: b.halfOpens.Value(), Closes: b.closes.Value(),
		Rejected: b.rejected.Value(), Failures: b.failures.Value(), Successes: b.successes.Value(),
	}
}

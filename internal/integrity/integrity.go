// Package integrity implements the plan-health defense for the
// serving stack: sampled shadow verification of served SpMM/SDDMM
// results against the original, unpermuted matrix; a per-tenant
// Monitor whose one machine tracks two failure modes of the tenant's
// plans — wrong numbers (healthy → quarantined → probation → healthy,
// routing to the reference path while a suspect plan is rebuilt) and
// a failing reordered path (closed → open → half-open → closed,
// routing to the no-reorder plans); and cheap structural invariant
// checks run before a rebuilt or re-skinned plan is swapped in.
//
// Every existing check in the stack — CRC'd plan snapshots, chaos-soak
// ledgers, the path breaker — verifies control flow, not results. A
// single off-by-one in a permutation, value re-skin, or overlay
// produces plausible but wrong numbers that all of them pass. This
// package closes that gap: verification recomputes a random subset of
// output rows with the reference row-wise kernel semantics in float64
// and compares under a tolerance that accounts for float reassociation
// across kernels.
package integrity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// ErrMismatch reports that shadow verification found a served result
// outside tolerance of the reference recomputation. The server treats
// it as transient: the retry path re-serves the request through the
// quarantine fallback, so the caller still receives a correct result.
var ErrMismatch = errors.New("integrity: result mismatch")

// ErrPlanInvariant reports that a plan failed a pre-swap structural
// invariant check (permutation bijectivity, RowPtr monotonicity, a
// re-skin's value reads in range and row lengths in agreement) and must
// not serve.
var ErrPlanInvariant = errors.New("integrity: plan invariant violated")

// corruptionsInjected counts data corruptions injected by the armed
// "integrity.corrupt.*" fault sites, process-wide: the sites live in
// packages below the Server (pipeline execution, plan-cache re-skin),
// which have no tenant registry in scope.
var corruptionsInjected = obs.Default().Counter(
	"spmmrr_integrity_corruptions_injected_total",
	"Data corruptions injected by armed integrity.corrupt.* fault sites.")

// CorruptionInjected records one injected corruption. Called by the
// integrity.corrupt.* fault sites when their hook matches
// faultinject.ErrCorrupt.
func CorruptionInjected() { corruptionsInjected.Inc() }

// InjectedCount returns the number of corruptions injected so far,
// for soak-test ledger reconciliation.
func InjectedCount() int64 { return corruptionsInjected.Value() }

// State is a quarantine-controller state.
type State int32

const (
	// Healthy: the plan is trusted; requests are shadow-verified at the
	// configured sample fraction.
	Healthy State = iota
	// Quarantined: a mismatch was confirmed against this plan
	// generation; all traffic routes to the reference fallback until a
	// rebuild publishes a new generation.
	Quarantined
	// Probation: a new generation is serving after quarantine; every
	// request is verified until the probation window passes clean.
	Probation
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// PathState is the reordered path's circuit-breaker state.
type PathState int32

const (
	// PathClosed: the reordered plans serve; consecutive failures are
	// counted.
	PathClosed PathState = iota
	// PathOpen: the tenant's reordered-path attempts run its no-reorder
	// plans until the cooldown elapses.
	PathOpen
	// PathHalfOpen: the cooldown elapsed and one probe attempt runs the
	// reordered path; its outcome closes or re-opens the path.
	PathHalfOpen
)

func (s PathState) String() string {
	switch s {
	case PathClosed:
		return "closed"
	case PathOpen:
		return "open"
	case PathHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("PathState(%d)", int32(s))
}

// Mode is how one attempt serves its request.
type Mode int8

const (
	// ModeFull serves through the tenant's plans as its trials decided.
	ModeFull Mode = iota
	// ModeVerify is ModeFull, then a shadow verification of sampled
	// output rows against the unpermuted matrix.
	ModeVerify
	// ModeFallback serves through the no-reorder plans: the reordered
	// path is open.
	ModeFallback
	// ModeReference serves through the reference row-wise kernel on the
	// original matrix: the tenant is quarantined, and its no-reorder
	// plans may be the suspect ones.
	ModeReference
)

// Decision is the routing verdict for one attempt.
type Decision struct {
	Mode Mode
	// Path is set when the attempt runs the reordered path: its outcome
	// must be reported with Done.
	Path  bool
	probe bool // the half-open probe
}

// Policy tunes a Monitor.
type Policy struct {
	// Fraction of healthy requests shadow-verified: <= 0 never (a
	// mismatch reported by an explicitly verified request still
	// quarantines), >= 1 every request.
	Fraction float64
	// Probation is the number of clean verified requests that reinstate
	// a quarantined tenant once its rebuild serves (min 1).
	Probation int
	// PathThreshold consecutive reordered-path failures open the path
	// (min 1); PathCooldown is how long it stays open before a
	// half-open probe (min 1ms).
	PathThreshold int
	PathCooldown  time.Duration
}

// Monitor is the per-tenant plan-health machine. One axis is the
// quarantine (healthy → quarantined → probation → healthy), driven by
// shadow-verification mismatches and keyed to the plan generation; the
// other is the reordered path's breaker (closed → open → half-open →
// closed), driven by the reordered path's errors. Quarantine dominates:
// a quarantined tenant serves the reference path whatever its path
// state. The healthy, closed route is a few atomic operations and zero
// allocations; state transitions take a mutex.
type Monitor struct {
	threshold uint64 // sample when mixed counter < threshold
	always    bool   // fraction >= 1: verify every request
	probation int    // clean verified requests required to reinstate

	pathThreshold int32
	pathCooldown  time.Duration
	now           func() time.Time // injectable for tests

	state       atomic.Int32  // State
	path        atomic.Int32  // PathState
	consecutive atomic.Int32  // consecutive path failures while closed; written under mu
	rng         atomic.Uint64 // splitmix64 counter for sampling

	mu            sync.Mutex
	quarGen       uint64 // plan generation the quarantine was declared on
	probationLeft int
	openedAt      time.Time // when the path last opened
	probing       bool      // a half-open probe is in flight
	onReinstate   func()    // fired under mu when probation completes
	onPath        func(from, to PathState)

	checksClean       atomic.Int64
	checksMismatch    atomic.Int64
	checksSkipped     atomic.Int64
	detected          atomic.Int64
	quarantines       atomic.Int64
	reinstated        atomic.Int64
	probationFailures atomic.Int64

	pathTrips, pathHalfOpens, pathCloses    atomic.Int64
	pathRejected, pathFailures, pathSuccess atomic.Int64
}

// NewMonitor returns a healthy, closed Monitor tuned by p. The hooks
// fire under the monitor's lock and must not call back into it: a
// non-nil onReinstate exactly once per reinstatement (probation window
// completing), a non-nil onPath exactly once per path state change,
// with the old and new state, in order. The serving stack uses them to
// emit reinstate and breaker_transition decision events whose counts
// reconcile with Stats().
func NewMonitor(p Policy, onReinstate func(), onPath func(from, to PathState)) *Monitor {
	m := &Monitor{probation: max(p.Probation, 1), pathThreshold: int32(max(p.PathThreshold, 1)),
		pathCooldown: max(p.PathCooldown, time.Millisecond), now: time.Now,
		onReinstate: onReinstate, onPath: onPath}
	switch {
	case p.Fraction >= 1:
		m.always = true
	case p.Fraction > 0:
		// fraction of the uint64 space; below 2^-64 rounds to never.
		m.threshold = uint64(p.Fraction * math.Pow(2, 64))
	}
	return m
}

// sample returns true for ~fraction of calls, using a splitmix64
// sequence over an atomic counter: deterministic-ish, lock-free, and
// allocation-free.
func (m *Monitor) sample() bool {
	if m.always {
		return true
	}
	if m.threshold == 0 {
		return false
	}
	return splitmix64(m.rng.Add(0x9E3779B97F4A7C15)) < m.threshold
}

func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Seed draws a fresh row-sampling seed from the monitor's splitmix64
// stream, so consecutive checks on the same tenant cover different row
// subsets. Consuming the sampling stream is harmless: each draw is an
// independent uniform value, so skipping one cannot bias Route's
// accept rate.
func (m *Monitor) Seed() uint64 {
	return splitmix64(m.rng.Add(0x9E3779B97F4A7C15))
}

// Route decides how one attempt serves. gen is the tenant's current
// plan generation (LivePipeline.baseGen); while quarantined, a gen
// different from the one the quarantine was declared on means a
// rebuild has published, so the monitor moves to probation and starts
// verifying every request. reordered reports whether the attempt would
// run some reordered plan; only such an attempt consults the path.
// While the path is open it serves ModeFallback until the cooldown
// elapses, when the calling attempt becomes the half-open probe; while
// a probe is in flight every other such attempt falls back.
func (m *Monitor) Route(gen uint64, reordered bool) Decision {
	d := Decision{Mode: ModeVerify}
	switch State(m.state.Load()) {
	case Healthy:
		if !m.sample() {
			d.Mode = ModeFull
		}
	case Quarantined:
		m.mu.Lock()
		if State(m.state.Load()) == Quarantined {
			if gen == m.quarGen {
				m.mu.Unlock()
				return Decision{Mode: ModeReference}
			}
			m.probationLeft = m.probation
			m.state.Store(int32(Probation))
		}
		m.mu.Unlock()
	}
	if !reordered {
		return d
	}
	if PathState(m.path.Load()) == PathClosed {
		d.Path = true
		return d
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch PathState(m.path.Load()) {
	case PathClosed:
		d.Path = true
	case PathOpen:
		if m.now().Sub(m.openedAt) < m.pathCooldown {
			m.pathRejected.Add(1)
			return Decision{Mode: ModeFallback}
		}
		m.movePathLocked(PathHalfOpen)
		m.pathHalfOpens.Add(1)
		m.probing = true
		d.Path, d.probe = true, true
	default: // PathHalfOpen
		if m.probing {
			m.pathRejected.Add(1)
			return Decision{Mode: ModeFallback}
		}
		// The last probe gave up without a verdict: this one probes.
		m.probing = true
		d.Path, d.probe = true, true
	}
	return d
}

// movePathLocked records a path state change and fires the hook.
// Callers hold m.mu.
func (m *Monitor) movePathLocked(to PathState) {
	from := PathState(m.path.Swap(int32(to)))
	if m.onPath != nil && from != to {
		m.onPath(from, to)
	}
}

// Done reports the outcome err of an attempt Route sent down the
// reordered path (d.Path; other decisions report nothing). Success
// closes a half-open path. A context error (the caller gave up) or an
// ErrMismatch (the quarantine owns wrong numbers) says nothing about
// the path's health: it is not counted, and a probe that ends so frees
// the probe for the next attempt. Any other error is a failure: a
// failed probe re-opens the path for another cooldown, and
// PathThreshold consecutive failures open a closed one.
func (m *Monitor) Done(d Decision, err error) {
	if !d.Path {
		return
	}
	switch {
	case err == nil:
		m.pathSuccess.Add(1)
		if PathState(m.path.Load()) == PathClosed && m.consecutive.Load() == 0 {
			return
		}
		m.mu.Lock()
		m.consecutive.Store(0)
		if PathState(m.path.Load()) == PathHalfOpen {
			m.movePathLocked(PathClosed)
			m.probing = false
			m.pathCloses.Add(1)
		}
		m.mu.Unlock()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrMismatch):
		if d.probe {
			m.mu.Lock()
			m.probing = false
			m.mu.Unlock()
		}
	default:
		m.pathFailures.Add(1)
		m.mu.Lock()
		defer m.mu.Unlock()
		switch PathState(m.path.Load()) {
		case PathHalfOpen:
			m.openPathLocked()
		case PathClosed:
			if m.consecutive.Add(1) >= m.pathThreshold {
				m.openPathLocked()
			}
		}
		// PathOpen: an attempt admitted before the trip reported late;
		// it changes nothing.
	}
}

// openPathLocked trips the path open for a cooldown. Callers hold m.mu.
func (m *Monitor) openPathLocked() {
	m.movePathLocked(PathOpen)
	m.openedAt = m.now()
	m.probing = false
	m.consecutive.Store(0)
	m.pathTrips.Add(1)
}

// OnMismatch records a confirmed verification mismatch observed
// against plan generation gen. It returns true when this call
// transitioned the monitor into quarantine (healthy → quarantined, or
// probation → quarantined on a failed probation) — the caller must
// then evict the suspect plans and kick a rebuild. It returns false
// when the monitor was already quarantined (a concurrent request lost
// the race; the eviction already happened).
func (m *Monitor) OnMismatch(gen uint64) bool {
	m.checksMismatch.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch State(m.state.Load()) {
	case Healthy:
		m.detected.Add(1)
		m.quarantines.Add(1)
		m.quarGen = gen
		m.state.Store(int32(Quarantined))
		return true
	case Probation:
		m.probationFailures.Add(1)
		m.quarGen = gen
		m.state.Store(int32(Quarantined))
		return true
	default:
		return false
	}
}

// OnVerified records one clean verification. In probation it advances
// the window; when the window completes the monitor reinstates the
// tenant to healthy.
func (m *Monitor) OnVerified() {
	m.checksClean.Add(1)
	if State(m.state.Load()) != Probation {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if State(m.state.Load()) != Probation {
		return
	}
	m.probationLeft--
	if m.probationLeft <= 0 {
		m.state.Store(int32(Healthy))
		m.reinstated.Add(1)
		if m.onReinstate != nil {
			m.onReinstate()
		}
	}
}

// OnSkipped records a verification that could not run because the
// serving state changed mid-request (a concurrent mutation or swap
// landed between snapshot and check). Skips never advance probation.
func (m *Monitor) OnSkipped() { m.checksSkipped.Add(1) }

// State returns the monitor's quarantine state.
func (m *Monitor) State() State { return State(m.state.Load()) }

// Path returns the reordered path's state (an open path becomes
// half-open only on the next reordered Route after its cooldown).
func (m *Monitor) Path() PathState { return PathState(m.path.Load()) }

// Stats is a snapshot of the monitor's ledgers. Invariants after
// quiescence: Detected == Quarantines,
// Reinstated + StillQuarantined == Quarantines, and
// PathCloses <= PathHalfOpens <= PathTrips <= PathFailures.
type Stats struct {
	State             State
	ChecksClean       int64 // verifications that passed
	ChecksMismatch    int64 // verifications that failed (incl. probation failures)
	ChecksSkipped     int64 // verifications skipped (state moved mid-request)
	Detected          int64 // healthy→quarantined transitions (first detections)
	Quarantines       int64 // quarantine episodes opened
	Reinstated        int64 // probation windows completed clean
	ProbationFailures int64 // probation→quarantined relapses
	StillQuarantined  int64 // 1 while an episode is open (quarantined or probation)

	Path          PathState
	PathTrips     int64 // closed/half-open → open transitions
	PathHalfOpens int64 // open → half-open transitions (probe admitted)
	PathCloses    int64 // half-open → closed transitions (probe succeeded)
	PathRejected  int64 // reordered attempts sent to the no-reorder fallback
	PathFailures  int64 // reordered-path failures reported
	PathSuccesses int64 // reordered-path successes reported
}

// Stats returns a snapshot of the monitor's ledgers.
func (m *Monitor) Stats() Stats {
	st := Stats{
		State:             m.State(),
		ChecksClean:       m.checksClean.Load(),
		ChecksMismatch:    m.checksMismatch.Load(),
		ChecksSkipped:     m.checksSkipped.Load(),
		Detected:          m.detected.Load(),
		Quarantines:       m.quarantines.Load(),
		Reinstated:        m.reinstated.Load(),
		ProbationFailures: m.probationFailures.Load(),
		Path:              m.Path(),
		PathTrips:         m.pathTrips.Load(),
		PathHalfOpens:     m.pathHalfOpens.Load(),
		PathCloses:        m.pathCloses.Load(),
		PathRejected:      m.pathRejected.Load(),
		PathFailures:      m.pathFailures.Load(),
		PathSuccesses:     m.pathSuccess.Load(),
	}
	if st.State != Healthy {
		st.StillQuarantined = 1
	}
	return st
}

// Verification tolerances. The executor kernels (merge-based, ELL/HYB,
// ASpT tiles, sharded scatter-gather) accumulate partial products in a
// different order than the reference row-wise kernel, and float32
// addition is not associative — so exact comparison is wrong by
// design. The check recomputes in float64 and bounds the allowed
// deviation by absTol + relTol·Σ|vᵢ·xᵢ|: the magnitude sum is the
// natural scale of reassociation error (each reordering step perturbs
// by at most one ulp of the running magnitude). relTol 1e-4 gives
// ~14 bits of slack over float32's 24-bit mantissa — orders of
// magnitude looser than any legal kernel's error, orders tighter than
// a flipped value or misrouted index.
const (
	DefaultRelTol = 1e-4
	DefaultAbsTol = 1e-6
)

// scratch pools the float64 accumulator/magnitude buffers used by the
// row checks, keeping the verify path allocation-free at steady state.
var scratch = sync.Pool{New: func() any { return new([]float64) }}

func getScratch(n int) (*[]float64, []float64) {
	p := scratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	s := (*p)[:n]
	for i := range s {
		s[i] = 0
	}
	return p, s
}

// CheckSpMMRows shadow-verifies y ≈ s·x on a sampled subset of rows:
// rows output rows are chosen by a splitmix64 sequence seeded with
// seed and recomputed in float64 directly from s (the original,
// unpermuted matrix). rows <= 0 or rows >= s.Rows checks every row.
// Returns nil when all checked rows are within tolerance, or an error
// wrapping ErrMismatch identifying the first failing entry.
func CheckSpMMRows(s *sparse.CSR, x, y *dense.Matrix, rows int, seed uint64, relTol, absTol float64) error {
	if y.Rows != s.Rows || x.Rows != s.Cols || y.Cols != x.Cols {
		return fmt.Errorf("%w: result shape %dx%d does not match %dx%d · %dx%d",
			ErrMismatch, y.Rows, y.Cols, s.Rows, s.Cols, x.Rows, x.Cols)
	}
	if s.Rows == 0 || y.Cols == 0 {
		return nil
	}
	k := y.Cols
	p, buf := getScratch(2 * k)
	defer scratch.Put(p)
	acc, mag := buf[:k], buf[k:]
	check := func(r int) error {
		for i := range acc {
			acc[i], mag[i] = 0, 0
		}
		cols, vals := s.RowCols(r), s.RowVals(r)
		for j := range cols {
			v := float64(vals[j])
			xr := x.Row(int(cols[j]))
			for c := 0; c < k; c++ {
				pr := v * float64(xr[c])
				acc[c] += pr
				mag[c] += math.Abs(pr)
			}
		}
		yr := y.Row(r)
		for c := 0; c < k; c++ {
			if d := math.Abs(float64(yr[c]) - acc[c]); d > absTol+relTol*mag[c] {
				return fmt.Errorf("%w: SpMM row %d col %d: got %g want %g (|Δ|=%g, tol=%g)",
					ErrMismatch, r, c, yr[c], acc[c], d, absTol+relTol*mag[c])
			}
		}
		return nil
	}
	if rows <= 0 || rows >= s.Rows {
		for r := 0; r < s.Rows; r++ {
			if err := check(r); err != nil {
				return err
			}
		}
		return nil
	}
	z := seed
	for i := 0; i < rows; i++ {
		z += 0x9E3779B97F4A7C15
		if err := check(int(splitmix64(z) % uint64(s.Rows))); err != nil {
			return err
		}
	}
	return nil
}

// CheckSDDMMRows shadow-verifies an SDDMM result on a sampled subset
// of rows: outVals must hold one value per nonzero of s, laid out by
// s.RowPtr (the result matrix shares s's structure). For each sampled
// row r and nonzero (r,c): reference = s[r,c] · Σₖ y[r,k]·x[c,k],
// recomputed in float64. rows <= 0 or rows >= s.Rows checks every row.
func CheckSDDMMRows(s *sparse.CSR, x, y *dense.Matrix, outVals []float32, rows int, seed uint64, relTol, absTol float64) error {
	if len(outVals) != s.NNZ() || y.Rows != s.Rows || x.Rows != s.Cols || y.Cols != x.Cols {
		return fmt.Errorf("%w: SDDMM result shape mismatch (nnz %d vs %d, y %dx%d, x %dx%d, s %dx%d)",
			ErrMismatch, len(outVals), s.NNZ(), y.Rows, y.Cols, x.Rows, x.Cols, s.Rows, s.Cols)
	}
	if s.Rows == 0 {
		return nil
	}
	k := y.Cols
	check := func(r int) error {
		cols, svals := s.RowCols(r), s.RowVals(r)
		yr := y.Row(r)
		base := int(s.RowPtr[r])
		for j := range cols {
			xr := x.Row(int(cols[j]))
			dot, mag := 0.0, 0.0
			for c := 0; c < k; c++ {
				pr := float64(yr[c]) * float64(xr[c])
				dot += pr
				mag += math.Abs(pr)
			}
			sv := float64(svals[j])
			want := sv * dot
			got := float64(outVals[base+j])
			if d := math.Abs(got - want); d > absTol+relTol*math.Abs(sv)*mag {
				return fmt.Errorf("%w: SDDMM row %d nz %d (col %d): got %g want %g (|Δ|=%g)",
					ErrMismatch, r, j, cols[j], got, want, d)
			}
		}
		return nil
	}
	if rows <= 0 || rows >= s.Rows {
		for r := 0; r < s.Rows; r++ {
			if err := check(r); err != nil {
				return err
			}
		}
		return nil
	}
	z := seed
	for i := 0; i < rows; i++ {
		z += 0x9E3779B97F4A7C15
		if err := check(int(splitmix64(z) % uint64(s.Rows))); err != nil {
			return err
		}
	}
	return nil
}

// CheckPlan validates the cheap structural invariants of a rebuilt or
// re-skinned plan before it is allowed to serve: rowPerm is a
// bijection with invRowPerm its exact inverse (both may be nil for an
// identity/NR plan), and reordered's RowPtr is monotone with the final
// entry matching the index/value array lengths and all column indices
// in range. O(rows + nnz) with no allocations beyond IsPermutation's
// seen bitmap — negligible next to the rebuild it gates.
func CheckPlan(rowPerm, invRowPerm []int32, reordered *sparse.CSR) error {
	if reordered == nil {
		return fmt.Errorf("%w: nil reordered matrix", ErrPlanInvariant)
	}
	if rowPerm != nil || invRowPerm != nil {
		if !sparse.IsPermutation(rowPerm, reordered.Rows) {
			return fmt.Errorf("%w: row permutation is not a bijection on %d rows", ErrPlanInvariant, reordered.Rows)
		}
		if len(invRowPerm) != len(rowPerm) {
			return fmt.Errorf("%w: inverse permutation length %d != %d", ErrPlanInvariant, len(invRowPerm), len(rowPerm))
		}
		for i, p := range rowPerm {
			if invRowPerm[p] != int32(i) {
				return fmt.Errorf("%w: invRowPerm[rowPerm[%d]] = %d, want %d", ErrPlanInvariant, i, invRowPerm[p], i)
			}
		}
	}
	m := reordered
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("%w: RowPtr length %d != rows+1 (%d)", ErrPlanInvariant, len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("%w: RowPtr[0] = %d, want 0", ErrPlanInvariant, m.RowPtr[0])
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("%w: RowPtr not monotone at row %d (%d < %d)", ErrPlanInvariant, i, m.RowPtr[i+1], m.RowPtr[i])
		}
	}
	if n := int(m.RowPtr[m.Rows]); n != len(m.ColIdx) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("%w: RowPtr[rows]=%d, len(ColIdx)=%d, len(Val)=%d disagree", ErrPlanInvariant, n, len(m.ColIdx), len(m.Val))
	}
	for j, c := range m.ColIdx {
		if c < 0 || int(c) >= m.Cols {
			return fmt.Errorf("%w: ColIdx[%d] = %d out of range [0,%d)", ErrPlanInvariant, j, c, m.Cols)
		}
	}
	return nil
}

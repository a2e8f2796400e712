package integrity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dense"
	"repro/internal/sparse"
)

func randCSR(rng *rand.Rand, rows, cols, perRow int) *sparse.CSR {
	m := &sparse.CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		n := rng.Intn(perRow + 1)
		seen := map[int32]bool{}
		var cs []int32
		for len(cs) < n {
			c := int32(rng.Intn(cols))
			if !seen[c] {
				seen[c] = true
				cs = append(cs, c)
			}
		}
		// sorted strictly increasing
		for i := range cs {
			for j := i + 1; j < len(cs); j++ {
				if cs[j] < cs[i] {
					cs[i], cs[j] = cs[j], cs[i]
				}
			}
		}
		for _, c := range cs {
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, rng.Float32()*2-1)
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	return m
}

func randDense(rng *rand.Rand, rows, cols int) *dense.Matrix {
	d := dense.New(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.Float32()*2 - 1
	}
	return d
}

func spmmRef(s *sparse.CSR, x *dense.Matrix) *dense.Matrix {
	y := dense.New(s.Rows, x.Cols)
	for r := 0; r < s.Rows; r++ {
		yr := y.Row(r)
		cols, vals := s.RowCols(r), s.RowVals(r)
		for j := range cols {
			xr := x.Row(int(cols[j]))
			for c := range yr {
				yr[c] += vals[j] * xr[c]
			}
		}
	}
	return y
}

func TestMonitorLifecycle(t *testing.T) {
	m := NewMonitor(Policy{Fraction: 1, Probation: 3}, nil, nil)
	if st := m.State(); st != Healthy {
		t.Fatalf("initial state %v", st)
	}
	d := m.Route(7, false)
	if d.Mode != ModeVerify {
		t.Fatalf("healthy always-verify route = %+v", d)
	}

	// First mismatch opens quarantine and asks the caller to evict.
	if !m.OnMismatch(7) {
		t.Fatal("first OnMismatch should transition")
	}
	if m.State() != Quarantined {
		t.Fatalf("state after mismatch %v", m.State())
	}
	// A racing second mismatch on the same generation must not.
	if m.OnMismatch(7) {
		t.Fatal("second OnMismatch should be a no-op")
	}
	// Same generation still serving: fallback.
	if d := m.Route(7, false); d.Mode != ModeReference {
		t.Fatalf("quarantined route = %+v", d)
	}
	// Rebuild published gen 8: probation, verify everything.
	if d := m.Route(8, false); d.Mode != ModeVerify {
		t.Fatalf("probation route = %+v", d)
	}
	if m.State() != Probation {
		t.Fatalf("state %v, want probation", m.State())
	}

	// Probation relapse: back to quarantine, not a new detection.
	if !m.OnMismatch(8) {
		t.Fatal("probation mismatch should transition")
	}
	st := m.Stats()
	if st.Detected != 1 || st.Quarantines != 1 || st.ProbationFailures != 1 {
		t.Fatalf("ledger after relapse: %+v", st)
	}
	// Second rebuild lands as gen 9; three clean checks reinstate.
	if d := m.Route(9, false); d.Mode != ModeVerify {
		t.Fatalf("re-probation route = %+v", d)
	}
	m.OnVerified()
	m.OnVerified()
	if m.State() != Probation {
		t.Fatalf("state %v before window closes", m.State())
	}
	m.OnVerified()
	if m.State() != Healthy {
		t.Fatalf("state %v after clean window", m.State())
	}

	st = m.Stats()
	if st.Detected != st.Quarantines {
		t.Fatalf("Detected %d != Quarantines %d", st.Detected, st.Quarantines)
	}
	if st.Reinstated+st.StillQuarantined != st.Quarantines {
		t.Fatalf("Reinstated %d + StillQuarantined %d != Quarantines %d",
			st.Reinstated, st.StillQuarantined, st.Quarantines)
	}
	if st.ChecksClean != 3 || st.ChecksMismatch != 3 {
		t.Fatalf("check counts %+v", st)
	}
}

func TestMonitorSkipsDoNotAdvanceProbation(t *testing.T) {
	m := NewMonitor(Policy{Fraction: 1, Probation: 2}, nil, nil)
	m.OnMismatch(1)
	m.Route(2, false) // enter probation
	m.OnSkipped()
	m.OnSkipped()
	if m.State() != Probation {
		t.Fatalf("skips advanced probation: %v", m.State())
	}
	m.OnVerified()
	m.OnVerified()
	if m.State() != Healthy {
		t.Fatalf("state %v", m.State())
	}
	if st := m.Stats(); st.ChecksSkipped != 2 {
		t.Fatalf("skipped = %d", st.ChecksSkipped)
	}
}

func TestMonitorSampleFraction(t *testing.T) {
	for _, tc := range []struct {
		fraction float64
		lo, hi   int // acceptance band out of 100000
	}{
		{0, 0, 0},
		{0.01, 700, 1300},
		{0.5, 48500, 51500},
		{1.0, 100000, 100000},
	} {
		m := NewMonitor(Policy{Fraction: tc.fraction, Probation: 1}, nil, nil)
		hits := 0
		for i := 0; i < 100000; i++ {
			if m.Route(0, false).Mode == ModeVerify {
				hits++
			}
		}
		if hits < tc.lo || hits > tc.hi {
			t.Errorf("fraction %g: %d/100000 sampled, want [%d,%d]", tc.fraction, hits, tc.lo, tc.hi)
		}
	}
}

// pathMonitor returns a monitor tuned by p whose clock stands still
// until the test advances it through the returned pointer.
func pathMonitor(p Policy) (*Monitor, *time.Time) {
	m := NewMonitor(p, nil, nil)
	clock := time.Now()
	m.now = func() time.Time { return clock }
	return m, &clock
}

var errPath = errors.New("reordered path fault")

func TestMonitorPathTripHalfOpenCloseCycle(t *testing.T) {
	m, clock := pathMonitor(Policy{PathThreshold: 3, PathCooldown: time.Hour})
	fail := func() {
		t.Helper()
		d := m.Route(1, true)
		if !d.Path || d.Mode != ModeFull {
			t.Fatalf("closed path routed %+v", d)
		}
		m.Done(d, errPath)
	}
	fail()
	fail()
	if m.Path() != PathClosed {
		t.Fatalf("path after 2 failures = %v, want closed", m.Path())
	}
	fail() // third consecutive: trip
	if m.Path() != PathOpen {
		t.Fatalf("path = %v, want open", m.Path())
	}
	if d := m.Route(1, true); d.Path || d.Mode != ModeFallback {
		t.Fatalf("open path before cooldown routed %+v, want the fallback", d)
	}
	if d := m.Route(1, false); d.Path || d.Mode != ModeFull {
		t.Fatalf("below-gate call on an open path routed %+v, want full", d)
	}

	*clock = clock.Add(2 * time.Hour) // cooldown elapses
	probe := m.Route(1, true)
	if !probe.Path {
		t.Fatal("probe not admitted after cooldown")
	}
	if m.Path() != PathHalfOpen {
		t.Fatalf("path = %v, want half-open", m.Path())
	}
	if d := m.Route(1, true); d.Path {
		t.Fatal("second probe admitted while one is in flight")
	}
	m.Done(probe, errPath) // probe fails: back to open
	if m.Path() != PathOpen {
		t.Fatalf("path after failed probe = %v, want open", m.Path())
	}

	*clock = clock.Add(2 * time.Hour)
	probe = m.Route(1, true)
	if !probe.Path {
		t.Fatal("second probe not admitted")
	}
	m.Done(probe, nil) // probe succeeds: closed
	if m.Path() != PathClosed {
		t.Fatalf("path after successful probe = %v, want closed", m.Path())
	}

	st := m.Stats()
	if st.PathTrips != 2 || st.PathHalfOpens != 2 || st.PathCloses != 1 {
		t.Fatalf("stats = %+v, want 2 trips, 2 half-opens, 1 close", st)
	}
	if st.PathRejected != 2 || st.PathFailures != 4 || st.PathSuccesses != 1 {
		t.Fatalf("stats = %+v, want 2 rejected, 4 failures, 1 success", st)
	}
}

func TestMonitorPathSuccessResetsConsecutive(t *testing.T) {
	m := NewMonitor(Policy{PathThreshold: 3, PathCooldown: time.Minute}, nil, nil)
	for i := 0; i < 10; i++ {
		for _, err := range []error{errPath, errPath, nil} { // never three in a row
			m.Done(m.Route(1, true), err)
		}
	}
	if m.Path() != PathClosed {
		t.Fatalf("path = %v, want closed (failures never consecutive)", m.Path())
	}
	if st := m.Stats(); st.PathTrips != 0 {
		t.Fatalf("trips = %d, want 0", st.PathTrips)
	}
}

func TestMonitorPathCounterInvariants(t *testing.T) {
	var transitions int64 // written by the hook, under the monitor's lock
	m := NewMonitor(Policy{PathThreshold: 2, PathCooldown: time.Millisecond}, nil,
		func(from, to PathState) { transitions++ })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d := m.Route(1, true)
				if (g+i)%3 == 0 {
					m.Done(d, errPath)
				} else {
					m.Done(d, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.PathHalfOpens > st.PathTrips {
		t.Fatalf("half-opens %d > trips %d", st.PathHalfOpens, st.PathTrips)
	}
	if st.PathCloses > st.PathHalfOpens {
		t.Fatalf("closes %d > half-opens %d", st.PathCloses, st.PathHalfOpens)
	}
	if st.PathTrips > st.PathFailures {
		t.Fatalf("trips %d > failures %d", st.PathTrips, st.PathFailures)
	}
	if want := st.PathTrips + st.PathHalfOpens + st.PathCloses; transitions != want {
		t.Fatalf("%d path transitions fired, counters say %d", transitions, want)
	}
}

// How the two axes compose. Each case starts from a healthy, closed
// monitor sampling 1% of requests, whose path opens on one failure and
// stays open for an hour of its stopped clock.
func TestMonitorPrecedence(t *testing.T) {
	open := func(t *testing.T, m *Monitor) {
		t.Helper()
		m.Done(m.Route(1, true), errPath)
		if m.Path() != PathOpen {
			t.Fatalf("path = %v after a failure at threshold 1", m.Path())
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *Monitor, clock *time.Time)
	}{
		{"mismatch is never a path failure", func(t *testing.T, m *Monitor, _ *time.Time) {
			m.Done(m.Route(1, true), fmt.Errorf("%w: row 3", ErrMismatch))
			if st := m.Stats(); st.Path != PathClosed || st.PathFailures != 0 || st.PathTrips != 0 {
				t.Fatalf("a mismatch charged the path: %+v", st)
			}
		}},
		{"quarantine routes to the reference path while the path is open", func(t *testing.T, m *Monitor, _ *time.Time) {
			open(t, m)
			m.OnMismatch(1)
			if d := m.Route(1, true); d.Mode != ModeReference || d.Path {
				t.Fatalf("quarantined tenant with an open path routed %+v", d)
			}
			if st := m.Stats(); st.PathRejected != 0 {
				t.Fatalf("the reference route counted %d path fallbacks", st.PathRejected)
			}
		}},
		{"cancelled probe reports nothing", func(t *testing.T, m *Monitor, clock *time.Time) {
			open(t, m)
			*clock = clock.Add(2 * time.Hour)
			probe := m.Route(1, true)
			m.Done(probe, fmt.Errorf("attempt: %w", context.Canceled))
			st := m.Stats()
			if st.Path != PathHalfOpen || st.PathFailures != 1 || st.PathSuccesses != 0 || st.PathCloses != 0 {
				t.Fatalf("a cancelled probe was counted: %+v", st)
			}
			if d := m.Route(1, true); !d.Path {
				t.Fatal("the cancelled probe kept the probe slot")
			}
			if st := m.Stats(); st.PathHalfOpens != 1 {
				t.Fatalf("half-opens = %d, want 1 (the path never reopened)", st.PathHalfOpens)
			}
		}},
		{"healthy unsampled route is lock-free and allocation-free", func(t *testing.T, m *Monitor, _ *time.Time) {
			route := func() { m.Done(m.Route(3, true), nil); m.Route(3, false) }
			if n := testing.AllocsPerRun(1000, route); n != 0 {
				t.Fatalf("healthy route allocates %v per call", n)
			}
			done := make(chan struct{})
			m.mu.Lock()
			go func() { route(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("healthy route blocked on the monitor's lock")
			}
			m.mu.Unlock()
			<-done
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, clock := pathMonitor(Policy{Fraction: 0.01, PathThreshold: 1, PathCooldown: time.Hour})
			tc.run(t, m, clock)
		})
	}
}

func TestCheckSpMMRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randCSR(rng, 200, 150, 12)
	x := randDense(rng, 150, 16)
	y := spmmRef(s, x)

	if err := CheckSpMMRows(s, x, y, 32, 99, DefaultRelTol, DefaultAbsTol); err != nil {
		t.Fatalf("clean result flagged: %v", err)
	}
	if err := CheckSpMMRows(s, x, y, -1, 0, DefaultRelTol, DefaultAbsTol); err != nil {
		t.Fatalf("clean full check flagged: %v", err)
	}

	// Reassociation-scale noise must pass: perturb every entry by a
	// relative 1e-6 (well inside the 1e-4 tolerance).
	noisy := dense.New(y.Rows, y.Cols)
	copy(noisy.Data, y.Data)
	for i := range noisy.Data {
		noisy.Data[i] *= 1 + 1e-6
	}
	if err := CheckSpMMRows(s, x, noisy, -1, 0, DefaultRelTol, DefaultAbsTol); err != nil {
		t.Fatalf("reassociation-scale noise flagged: %v", err)
	}

	// A flipped value must be caught by the full check.
	bad := dense.New(y.Rows, y.Cols)
	copy(bad.Data, y.Data)
	bad.Data[len(bad.Data)/2] = bad.Data[len(bad.Data)/2]*2 + 1
	err := CheckSpMMRows(s, x, bad, -1, 0, DefaultRelTol, DefaultAbsTol)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("flipped value not caught: %v", err)
	}

	// Shape mismatch reports rather than panics.
	if err := CheckSpMMRows(s, x, dense.New(3, 3), -1, 0, DefaultRelTol, DefaultAbsTol); !errors.Is(err, ErrMismatch) {
		t.Fatalf("shape mismatch: %v", err)
	}
}

func TestCheckSpMMRowsZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randCSR(rng, 128, 96, 8)
	x := randDense(rng, 96, 8)
	y := spmmRef(s, x)
	// Warm the scratch pool.
	if err := CheckSpMMRows(s, x, y, 8, 1, DefaultRelTol, DefaultAbsTol); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if err := CheckSpMMRows(s, x, y, 8, 1, DefaultRelTol, DefaultAbsTol); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state check allocates %v per call", n)
	}
}

func TestCheckSDDMMRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randCSR(rng, 120, 90, 10)
	x := randDense(rng, 90, 12)  // one row per column of s
	y := randDense(rng, 120, 12) // one row per row of s
	out := make([]float32, s.NNZ())
	for r := 0; r < s.Rows; r++ {
		cols, svals := s.RowCols(r), s.RowVals(r)
		yr := y.Row(r)
		base := int(s.RowPtr[r])
		for j := range cols {
			xr := x.Row(int(cols[j]))
			dot := float32(0)
			for c := range yr {
				dot += yr[c] * xr[c]
			}
			out[base+j] = dot * svals[j]
		}
	}
	if err := CheckSDDMMRows(s, x, y, out, -1, 0, DefaultRelTol, DefaultAbsTol); err != nil {
		t.Fatalf("clean SDDMM flagged: %v", err)
	}
	if s.NNZ() == 0 {
		t.Fatal("test matrix has no nonzeros")
	}
	out[s.NNZ()/2] = out[s.NNZ()/2]*2 + 1
	if err := CheckSDDMMRows(s, x, y, out, -1, 0, DefaultRelTol, DefaultAbsTol); !errors.Is(err, ErrMismatch) {
		t.Fatalf("flipped SDDMM value not caught: %v", err)
	}
}

func TestCheckPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randCSR(rng, 50, 40, 6)
	perm := make([]int32, 50)
	inv := make([]int32, 50)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for i, p := range perm {
		inv[p] = int32(i)
	}

	if err := CheckPlan(perm, inv, m); err != nil {
		t.Fatalf("valid plan flagged: %v", err)
	}
	if err := CheckPlan(nil, nil, m); err != nil {
		t.Fatalf("identity plan flagged: %v", err)
	}

	// Duplicate entry breaks bijectivity.
	badPerm := append([]int32(nil), perm...)
	badPerm[1] = badPerm[0]
	if err := CheckPlan(badPerm, inv, m); !errors.Is(err, ErrPlanInvariant) {
		t.Fatalf("duplicate perm entry: %v", err)
	}
	// Inverse that does not invert.
	badInv := append([]int32(nil), inv...)
	badInv[int(perm[0])], badInv[int(perm[1])] = badInv[int(perm[1])], badInv[int(perm[0])]
	if err := CheckPlan(perm, badInv, m); !errors.Is(err, ErrPlanInvariant) {
		t.Fatalf("broken inverse: %v", err)
	}
	// Non-monotone RowPtr.
	badM := &sparse.CSR{Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int32(nil), m.RowPtr...), ColIdx: m.ColIdx, Val: m.Val}
	if badM.RowPtr[2] > 0 {
		badM.RowPtr[2], badM.RowPtr[1] = badM.RowPtr[1], badM.RowPtr[2]+1
	}
	badM.RowPtr[1] = badM.RowPtr[2] + 1
	if err := CheckPlan(perm, inv, badM); !errors.Is(err, ErrPlanInvariant) {
		t.Fatalf("non-monotone RowPtr: %v", err)
	}
	// Column index out of range.
	badC := &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr,
		ColIdx: append([]int32(nil), m.ColIdx...), Val: m.Val}
	if len(badC.ColIdx) > 0 {
		badC.ColIdx[0] = int32(m.Cols)
		if err := CheckPlan(perm, inv, badC); !errors.Is(err, ErrPlanInvariant) {
			t.Fatalf("out-of-range ColIdx: %v", err)
		}
	}
}

func TestToleranceScalesWithMagnitude(t *testing.T) {
	// One huge row: |Σ v·x| magnitude dwarfs the result (catastrophic
	// cancellation). The tolerance must scale with the magnitude sum,
	// not the result, or legal kernels would be flagged.
	s := &sparse.CSR{Rows: 1, Cols: 2, RowPtr: []int32{0, 2},
		ColIdx: []int32{0, 1}, Val: []float32{1e6, -1e6}}
	x := dense.New(2, 1)
	x.Data[0], x.Data[1] = 1, 1.0000001
	y := dense.New(1, 1)
	y.Data[0] = float32(1e6*1 - 1e6*1.0000001)
	// A different summation order can shift the result by ~mag·eps ≈
	// 2e6·6e-8 ≈ 0.12; the naive |Δ| ≤ relTol·|result| bound would
	// reject that. Perturb within the magnitude-scaled bound:
	y.Data[0] += 0.05
	if err := CheckSpMMRows(s, x, y, -1, 0, DefaultRelTol, DefaultAbsTol); err != nil {
		t.Fatalf("magnitude-scale deviation flagged: %v", err)
	}
	// But a deviation far beyond the magnitude scale is corruption.
	y.Data[0] += 1e4
	if err := CheckSpMMRows(s, x, y, -1, 0, DefaultRelTol, DefaultAbsTol); !errors.Is(err, ErrMismatch) {
		t.Fatalf("gross deviation not caught: %v", err)
	}
	_ = math.Abs // keep math imported if bounds above change
}

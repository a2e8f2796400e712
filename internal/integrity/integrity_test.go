package integrity

import (
	"errors"
	"math"
	"math/rand"
	"testing"

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
	m := NewMonitor(1.0, 3, nil)
	if st := m.State(); st != Healthy {
		t.Fatalf("initial state %v", st)
	}
	d := m.Route(7)
	if d.Fallback || !d.Verify {
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
	if d := m.Route(7); !d.Fallback {
		t.Fatalf("quarantined route = %+v", d)
	}
	// Rebuild published gen 8: probation, verify everything.
	if d := m.Route(8); d.Fallback || !d.Verify {
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
	if d := m.Route(9); !d.Verify || d.Fallback {
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
	m := NewMonitor(1.0, 2, nil)
	m.OnMismatch(1)
	m.Route(2) // enter probation
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
		m := NewMonitor(tc.fraction, 1, nil)
		hits := 0
		for i := 0; i < 100000; i++ {
			if m.Route(0).Verify {
				hits++
			}
		}
		if hits < tc.lo || hits > tc.hi {
			t.Errorf("fraction %g: %d/100000 sampled, want [%d,%d]", tc.fraction, hits, tc.lo, tc.hi)
		}
	}
}

func TestMonitorHealthyRouteZeroAlloc(t *testing.T) {
	m := NewMonitor(0.01, 8, nil)
	if n := testing.AllocsPerRun(1000, func() { m.Route(3) }); n != 0 {
		t.Fatalf("healthy Route allocates %v per call", n)
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

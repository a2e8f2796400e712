package reorder

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// withNewValues returns m with the same structure arrays and fresh
// random values.
func withNewValues(m *sparse.CSR, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, len(m.Val))
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: v}
}

// A re-skinned plan must hold exactly the values a cold build of the
// new matrix holds, in all three value arrays, while sharing every
// structure array with the plan it came from.
func TestWithValuesMatchesColdBuild(t *testing.T) {
	clustered, err := synth.Clustered(synth.ClusterParams{
		Rows: 1024, Cols: 1024, Clusters: 128, PrototypeNNZ: 16,
		Keep: 0.8, Noise: 1, Seed: 5, Scrambled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := synth.Uniform(700, 500, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *sparse.CSR
		nr   bool
	}{
		{"clustered-rr", clustered, false},
		{"clustered-nr", clustered, true},
		{"uniform", uniform, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Disable = tc.nr
			cfg.Force = !tc.nr
			plan, err := Preprocess(tc.m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "clustered-rr" && !plan.Round1Applied {
				t.Fatal("clustered matrix was not reordered; the test needs a permuted plan")
			}
			for _, workers := range []int{1, 4} {
				m2 := withNewValues(tc.m, int64(workers))
				got, err := plan.WithValues(m2, workers)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Preprocess(m2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Reordered.Val, want.Reordered.Val) ||
					!slices.Equal(got.Tiled.TileVal, want.Tiled.TileVal) ||
					!slices.Equal(got.Tiled.Rest.Val, want.Tiled.Rest.Val) {
					t.Fatalf("workers=%d: re-skinned values differ from a cold build", workers)
				}
				if &got.Reordered.ColIdx[0] != &plan.Reordered.ColIdx[0] ||
					&got.Tiled.TileCol[0] != &plan.Tiled.TileCol[0] ||
					&got.Tiled.Rest.RowPtr[0] != &plan.Tiled.Rest.RowPtr[0] ||
					&got.RowPerm[0] != &plan.RowPerm[0] {
					t.Fatal("re-skinned plan does not share the structure arrays")
				}
				if got.Tiled.Src != got.Reordered {
					t.Fatal("re-skinned tiling does not point at the re-skinned matrix")
				}
				if got.Stages.Permute <= 0 || got.Stages.Total() != got.Stages.Permute {
					t.Fatalf("stages = %v, want only Permute", got.Stages)
				}
				if &plan.Reordered.Val[0] == &got.Reordered.Val[0] || &plan.Tiled.TileVal[0] == &got.Tiled.TileVal[0] {
					t.Fatal("re-skin shares the source plan's values")
				}
			}
		})
	}
}

// Every way a matrix can fail to fit the plan is an ErrPlanInvariant,
// never a panic and never a plan.
func TestWithValuesRejectsMismatchedMatrix(t *testing.T) {
	m, err := synth.Clustered(synth.ClusterParams{
		Rows: 512, Cols: 512, Clusters: 64, PrototypeNNZ: 12,
		Keep: 0.8, Noise: 1, Seed: 9, Scrambled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Preprocess(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tiled.NNZDense() == 0 {
		t.Fatal("plan has no dense tiles; the column case needs some")
	}
	short, err := synth.Uniform(511, 512, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Same row count and nnz, but row 0 is one longer and row 1 one
	// shorter: every read stays in range, the row lengths disagree.
	shifted := m.Clone()
	shifted.RowPtr = slices.Clone(m.RowPtr)
	shifted.RowPtr[1]++
	// Too few values for the RowPtr it claims.
	truncated := m.Clone()
	truncated.Val = truncated.Val[:len(truncated.Val)-1]
	for name, bad := range map[string]*sparse.CSR{
		"rows": short, "row-lengths": shifted, "values": truncated,
	} {
		p, err := plan.WithValues(bad, 2)
		if !errors.Is(err, integrity.ErrPlanInvariant) || p != nil {
			t.Errorf("%s: WithValues = (%v, %v), want ErrPlanInvariant and no plan", name, p != nil, err)
		}
	}
	// A source row outside the matrix.
	broken := *plan
	broken.RowPerm = slices.Clone(plan.RowPerm)
	broken.RowPerm[5] = int32(m.Rows)
	if _, err := broken.WithValues(m, 1); !errors.Is(err, integrity.ErrPlanInvariant) {
		t.Errorf("out-of-range RowPerm: %v, want ErrPlanInvariant", err)
	}
	// A tile column a mixed tile/rest row does not hold: its split
	// cannot be consumed exactly.
	broken = *plan
	tiled := *plan.Tiled
	tiled.TileCol = slices.Clone(plan.Tiled.TileCol)
	mixed := -1
	for i := 0; i < m.Rows && mixed < 0; i++ {
		if tiled.TileRowPtr[i+1] > tiled.TileRowPtr[i] && tiled.Rest.RowLen(i) > 0 {
			mixed = i
		}
	}
	if mixed < 0 {
		t.Fatal("plan has no row split across tile and rest")
	}
	tiled.TileCol[tiled.TileRowPtr[mixed]] = -1
	broken.Tiled = &tiled
	if _, err := broken.WithValues(m, 1); !errors.Is(err, integrity.ErrPlanInvariant) {
		t.Errorf("inconsistent tile split: %v, want ErrPlanInvariant", err)
	}
}

// The corrupt.gather fault site misroutes values inside the re-skinned
// plan only: the structure still passes the plan invariant gate, the
// values are a permutation of the right ones, and the source plan is
// untouched.
func TestWithValuesCorruptGatherSite(t *testing.T) {
	m, err := synth.Uniform(400, 400, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Preprocess(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2 := withNewValues(m, 12)
	clean, err := plan.WithValues(m2, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := integrity.InjectedCount()
	restore := faultinject.CorruptAt("integrity.corrupt.gather")
	bad, err := plan.WithValues(m2, 1)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if integrity.InjectedCount() == before {
		t.Fatal("armed site injected nothing")
	}
	if slices.Equal(bad.Reordered.Val, clean.Reordered.Val) {
		t.Fatal("armed site left the reordered values intact")
	}
	if err := integrity.CheckPlan(bad.RowPerm, bad.InvRowPerm, bad.Reordered); err != nil {
		t.Fatalf("corruption is not structurally silent: %v", err)
	}
	a, b := slices.Clone(bad.Reordered.Val), slices.Clone(clean.Reordered.Val)
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Fatal("corruption is not an in-range misroute of the right values")
	}
	// ErrorAt (the generic chaos sweep) is a no-op at corruption sites.
	restore = faultinject.ErrorAt("integrity.corrupt.gather")
	again, err := plan.WithValues(m2, 1)
	restore()
	if err != nil || !slices.Equal(again.Reordered.Val, clean.Reordered.Val) {
		t.Fatalf("ErrorAt hook changed the walk: %v", err)
	}
}

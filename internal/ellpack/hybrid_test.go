package ellpack_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func TestHybridSplit(t *testing.T) {
	// Rows of lengths 1,1,1,5: the 0.75 quantile width is 1, so the long
	// row spills 4 entries.
	sets := [][]int32{{0}, {1}, {2}, {0, 1, 2, 3, 4}}
	m := mustCSR(t, 4, 8, sets)
	h, err := ellpack.FromCSRHybrid(m, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if h.ELL.Width != 1 {
		t.Fatalf("width = %d, want 1", h.ELL.Width)
	}
	if len(h.Spill) != 4 {
		t.Fatalf("spill = %d, want 4", len(h.Spill))
	}
	if h.NNZ() != m.NNZ() {
		t.Fatalf("NNZ = %d, want %d", h.NNZ(), m.NNZ())
	}
	if h.SpillRatio() != 0.5 {
		t.Fatalf("SpillRatio = %v", h.SpillRatio())
	}
}

func TestHybridQuantileValidation(t *testing.T) {
	m := mustCSR(t, 2, 2, [][]int32{{0}, {1}})
	if _, err := ellpack.FromCSRHybrid(m, -0.1); err == nil {
		t.Errorf("negative quantile accepted")
	}
	if _, err := ellpack.FromCSRHybrid(m, 1.5); err == nil {
		t.Errorf("quantile > 1 accepted")
	}
	if _, err := ellpack.FromCSRHybrid(m, 0); err != nil {
		t.Errorf("default quantile rejected: %v", err)
	}
}

func TestHybridSpMMMatchesCSR(t *testing.T) {
	m, err := synth.RMAT(9, 8, 0.57, 0.19, 0.19, 4) // heavy-tailed rows
	if err != nil {
		t.Fatal(err)
	}
	h, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.SpillRatio() == 0 {
		t.Fatalf("fixture should spill")
	}
	x := dense.NewRandom(m.Cols, 8, 1)
	want, err := kernels.SpMMRowWise(m, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(got, want); d > 1e-3 {
		t.Fatalf("HYB SpMM differs by %v", d)
	}
}

func TestHybridBeatsELLOnSkewed(t *testing.T) {
	// One huge row: ELL pads everything; HYB spills it and wins.
	sets := make([][]int32, 256)
	for c := int32(0); c < 200; c++ {
		sets[0] = append(sets[0], c)
	}
	for i := 1; i < 256; i++ {
		sets[i] = []int32{int32(i % 256)}
	}
	m := mustCSR(t, 256, 256, sets)
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.P100()
	ell, err := ellpack.SimulateSpMM(dev, e, 256)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := ellpack.SimulateSpMMHybrid(dev, h, 256)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.DRAMBytes >= ell.DRAMBytes {
		t.Fatalf("HYB traffic %v not below ELL %v on skewed input", hyb.DRAMBytes, ell.DRAMBytes)
	}
}

// Property: HYB partitions nonzeros exactly and SpMM matches CSR.
func TestPropertyHybrid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(30)
		sets := make([][]int32, rows)
		for i := range sets {
			n := rng.Intn(8)
			if n > cols {
				n = cols
			}
			seen := map[int32]bool{}
			for len(seen) < n {
				seen[int32(rng.Intn(cols))] = true
			}
			for c := range seen {
				sets[i] = append(sets[i], c)
			}
		}
		m, err := sparse.FromRows(rows, cols, sets, nil)
		if err != nil {
			return false
		}
		q := 0.25 + 0.75*rng.Float64()
		h, err := ellpack.FromCSRHybrid(m, q)
		if err != nil {
			return false
		}
		if h.NNZ() != m.NNZ() {
			return false
		}
		x := dense.NewRandom(cols, 4, seed)
		a, err := h.SpMM(x)
		if err != nil {
			return false
		}
		b, err := kernels.SpMMRowWise(m, x)
		if err != nil {
			return false
		}
		return dense.MaxAbsDiff(a, b) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridQuantileRejectsNaN(t *testing.T) {
	// Regression: NaN fails both q < 0 and q > 1, so it used to flow
	// into the float->int width index, which is platform-dependent.
	m := mustCSR(t, 2, 2, [][]int32{{0}, {1}})
	if _, err := ellpack.FromCSRHybrid(m, math.NaN()); err == nil {
		t.Fatalf("NaN quantile accepted")
	}
}

func TestHybridQuantileNearestRank(t *testing.T) {
	// Regression: with rows of lengths {1, 3}, the 0.75 quantile must be
	// the nearest (ceiling) rank ⌈0.75·2⌉ = 2nd smallest = 3. Floor-rank
	// truncation picked the *shorter* row and spilled 2 of 4 nonzeros.
	m := mustCSR(t, 2, 4, [][]int32{{0}, {0, 1, 2}})
	h, err := ellpack.FromCSRHybrid(m, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if h.ELL.Width != 3 {
		t.Fatalf("width = %d, want 3 (nearest-rank quantile)", h.ELL.Width)
	}
	if len(h.Spill) != 0 {
		t.Fatalf("spill = %d, want 0", len(h.Spill))
	}
	// The 0.5 quantile is the 1st smallest = 1: the long row spills.
	h, err = ellpack.FromCSRHybrid(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h.ELL.Width != 1 || len(h.Spill) != 2 {
		t.Fatalf("q=0.5: width = %d spill = %d, want 1 and 2", h.ELL.Width, len(h.Spill))
	}
}

func TestHybridCumWork(t *testing.T) {
	m := mustCSR(t, 4, 8, [][]int32{{0}, {}, {0, 1, 2, 3, 4}, {1, 2}})
	h, err := ellpack.FromCSRHybrid(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= m.Rows; i++ {
		if got, want := h.CumWork(i), int64(m.RowPtr[i]); got != want {
			t.Fatalf("CumWork(%d) = %d, want %d", i, got, want)
		}
	}
}

// A value re-skin must equal a fresh conversion of the re-valued matrix
// slot for slot and spill entry for spill entry, while sharing the
// slab's structure arrays with the hybrid it came from.
func TestHybridWithValuesMatchesRebuild(t *testing.T) {
	m, err := synth.RMAT(9, 8, 0.57, 0.19, 0.19, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Spill) == 0 {
		t.Fatal("R-MAT matrix spilled nothing; the test needs a spill")
	}
	rng := rand.New(rand.NewSource(2))
	m2 := &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: make([]float32, m.NNZ())}
	for i := range m2.Val {
		m2.Val[i] = rng.Float32()
	}
	got, err := h.WithValues(m2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ellpack.FromCSRHybrid(m2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ELL.Vals {
		if got.ELL.Vals[i] != want.ELL.Vals[i] {
			t.Fatalf("slab slot %d = %v, want %v", i, got.ELL.Vals[i], want.ELL.Vals[i])
		}
	}
	if len(got.Spill) != len(want.Spill) {
		t.Fatalf("spill has %d entries, want %d", len(got.Spill), len(want.Spill))
	}
	for i := range want.Spill {
		if got.Spill[i] != want.Spill[i] {
			t.Fatalf("spill %d = %+v, want %+v", i, got.Spill[i], want.Spill[i])
		}
	}
	if &got.ELL.RowLen[0] != &h.ELL.RowLen[0] || &got.ELL.Cols[0] != &h.ELL.Cols[0] {
		t.Fatal("re-skinned slab does not share RowLen/Cols")
	}
	if got.CumWork(m.Rows) != int64(m.NNZ()) {
		t.Fatalf("CumWork(rows) = %d, want %d", got.CumWork(m.Rows), m.NNZ())
	}
	if h.ELL.Vals[0] != m.Val[0] && m.RowLen(0) > 0 {
		t.Fatal("re-skin modified the source hybrid")
	}

	// A matrix of another shape is refused, not re-skinned.
	short := &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: m2.Val[:len(m2.Val)-1]}
	if _, err := h.WithValues(short); err == nil {
		t.Fatal("re-skin accepted a matrix with too few values")
	}
}

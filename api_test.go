package repro_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/sparse"
)

func scrambled(t *testing.T) *repro.Matrix {
	t.Helper()
	m, err := repro.GenerateScrambledClusters(2048, 2048, 128, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// skewed is an R-MAT matrix with its rows shuffled, so the hub rows
// spread over the whole row range: the autotuner picks merge for it,
// and for every nnz-balanced row panel of it.
func skewed(t *testing.T) *repro.Matrix {
	t.Helper()
	m, err := repro.GenerateRMAT(11, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int32, m.Rows)
	for i, r := range rand.New(rand.NewSource(5)).Perm(m.Rows) {
		perm[i] = int32(r)
	}
	if m, err = sparse.PermuteRows(m, perm); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSpMMAgainstPipeline(t *testing.T) {
	m := scrambled(t)
	x := repro.NewRandomDense(m.Cols, 32, 1)
	plain, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := p.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rows != tuned.Rows || plain.Cols != tuned.Cols {
		t.Fatalf("shape changed")
	}
	for i := range plain.Data {
		if d := math.Abs(float64(plain.Data[i] - tuned.Data[i])); d > 1e-4 {
			t.Fatalf("pipeline SpMM diverges at %d by %v", i, d)
		}
	}
}

// TestIntoAgainstAllocating checks the public zero-allocation entry
// points (top-level and Pipeline) against their allocating forms,
// including scratch reuse through GetDense/PutDense.
func TestIntoAgainstAllocating(t *testing.T) {
	m := scrambled(t)
	x := repro.NewRandomDense(m.Cols, 16, 7)
	yin := repro.NewRandomDense(m.Rows, 16, 8)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	y := repro.GetDense(m.Rows, 16)
	defer repro.PutDense(y)
	if err := repro.SpMMInto(y, m, x); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != y.Data[i] {
			t.Fatalf("SpMMInto diverges at %d", i)
		}
	}
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	y2 := repro.NewDense(m.Rows, 16)
	if err := p.SpMMInto(y2, x); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if d := math.Abs(float64(want.Data[i] - y2.Data[i])); d > 1e-4 {
			t.Fatalf("pipeline SpMMInto diverges at %d by %v", i, d)
		}
	}
	if err := p.SpMMInto(repro.NewDense(m.Rows, 15), x); err == nil {
		t.Fatalf("pipeline SpMMInto accepted wrong shape")
	}
	wantO, err := repro.SDDMM(m, x, yin)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Clone()
	if err := repro.SDDMMInto(out, m, x, yin); err != nil {
		t.Fatal(err)
	}
	for j := range wantO.Val {
		if wantO.Val[j] != out.Val[j] {
			t.Fatalf("SDDMMInto diverges at %d", j)
		}
	}
	out2 := m.Clone()
	if err := p.SDDMMInto(out2, x, yin); err != nil {
		t.Fatal(err)
	}
	if !out2.SameStructure(m) {
		t.Fatalf("pipeline SDDMMInto changed structure")
	}
	for j := range wantO.Val {
		if d := math.Abs(float64(wantO.Val[j] - out2.Val[j])); d > 1e-4 {
			t.Fatalf("pipeline SDDMMInto diverges at %d by %v", j, d)
		}
	}
}

// TestFromRowsUnsortedSDDMM is the end-to-end regression for the CSR
// sorted-unique invariant: a caller handing FromRows unsorted rows must
// get correct SDDMM values (the ASpT scatter path binary-searches row
// columns and silently mis-scatters if construction ever stops
// sorting).
func TestFromRowsUnsortedSDDMM(t *testing.T) {
	m, err := repro.FromRows(2, 4,
		[][]int32{{3, 0, 2}, {1, 0}},
		[][]float32{{30, 1, 20}, {11, 2}})
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(4, 3, 9)
	yin := repro.NewRandomDense(2, 3, 10)
	got, err := repro.SDDMM(m, x, yin)
	if err != nil {
		t.Fatal(err)
	}
	// Reference computed straight from the (row, col, val) triples.
	check := func(row int, col int32, sval float32) {
		dot := float32(0)
		for k := 0; k < 3; k++ {
			dot += yin.At(row, k) * x.At(int(col), k)
		}
		cols := got.RowCols(row)
		for j := range cols {
			if cols[j] == col {
				if d := math.Abs(float64(got.RowVals(row)[j] - dot*sval)); d > 1e-5 {
					t.Fatalf("SDDMM wrong at (%d,%d): got %v want %v",
						row, col, got.RowVals(row)[j], dot*sval)
				}
				return
			}
		}
		t.Fatalf("nonzero (%d,%d) missing from SDDMM output", row, col)
	}
	check(0, 3, 30)
	check(0, 0, 1)
	check(0, 2, 20)
	check(1, 1, 11)
	check(1, 0, 2)
	// Duplicate columns must be rejected, not silently mangled.
	if _, err := repro.FromRows(1, 3, [][]int32{{2, 2}}, [][]float32{{1, 2}}); err == nil {
		t.Fatalf("FromRows accepted duplicate columns")
	}
}

func TestSDDMMAgainstPipeline(t *testing.T) {
	m := scrambled(t)
	x := repro.NewRandomDense(m.Cols, 16, 2)
	y := repro.NewRandomDense(m.Rows, 16, 3)
	plain, err := repro.SDDMM(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := p.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.SameStructure(m) {
		t.Fatalf("SDDMM output structure differs from input")
	}
	for j := range plain.Val {
		if d := math.Abs(float64(plain.Val[j] - tuned.Val[j])); d > 1e-4 {
			t.Fatalf("pipeline SDDMM diverges at %d by %v", j, d)
		}
	}
}

func TestPipelineNRMatchesToo(t *testing.T) {
	m := scrambled(t)
	x := repro.NewRandomDense(m.Cols, 8, 4)
	p, err := repro.NewPipelineNR(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Plan().NeedsReordering() {
		t.Fatalf("NR pipeline reordered")
	}
	got, err := p.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("NR pipeline diverges")
		}
	}
}

func TestEstimates(t *testing.T) {
	m := scrambled(t)
	dev := repro.P100()
	// Scale the device to the test matrix (see DESIGN.md §5).
	dev.L2Bytes = 256 << 10
	dev.NumSMs = 8
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := repro.EstimateSpMMRowWise(dev, m, 256)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.EstimateSpMM(dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	if st.Time <= 0 || base.Time <= 0 {
		t.Fatalf("no simulated time")
	}
	if st.Time >= base.Time {
		t.Fatalf("reordered pipeline not faster on scrambled clusters: %v vs %v", st.Time, base.Time)
	}
	sd, err := p.EstimateSDDMM(dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := repro.EstimateSDDMMRowWise(dev, m, 256)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Time >= sb.Time {
		t.Fatalf("SDDMM estimate not faster: %v vs %v", sd.Time, sb.Time)
	}
}

func TestAutoTune(t *testing.T) {
	dev := repro.P100()
	dev.L2Bytes = 256 << 10
	dev.NumSMs = 8
	// Scrambled clusters: reordering wins.
	m := scrambled(t)
	p, err := repro.AutoTune(m, repro.DefaultConfig(), dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Plan().NeedsReordering() {
		t.Fatalf("AutoTune rejected reordering on scrambled clusters")
	}
	// A diagonal matrix: reordering cannot win; NR (no preprocessing) is
	// chosen.
	d, err := repro.GenerateUniform(1024, 8192, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := repro.AutoTune(d, repro.DefaultConfig(), dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(d.Cols, 8, 1)
	if _, err := p2.SpMM(x); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixMarketFacade(t *testing.T) {
	m := scrambled(t)
	var buf bytes.Buffer
	if err := repro.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameStructure(m) {
		t.Fatalf("round trip changed structure")
	}
	if _, err := repro.ReadMatrixMarket(strings.NewReader("garbage")); err == nil {
		t.Fatalf("accepted garbage")
	}
}

func TestFromRowsFacade(t *testing.T) {
	m, err := repro.FromRows(2, 3, [][]int32{{0, 2}, {1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if _, err := repro.FromRows(2, 3, [][]int32{{5}}, nil); err == nil {
		t.Fatalf("accepted bad input")
	}
}

func TestGenerators(t *testing.T) {
	if _, err := repro.GenerateRMAT(8, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.GenerateUniform(100, 100, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.GenerateScrambledClusters(100, 100, 10, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadPlan(t *testing.T) {
	m := scrambled(t)
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SavePlan(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := repro.NewPipelineFromSavedPlan(m, repro.DefaultConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 8, 5)
	a, err := p.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("saved-plan pipeline differs at %d", i)
		}
	}
	// Wrong matrix shape must be rejected.
	var buf2 bytes.Buffer
	if err := p.SavePlan(&buf2); err != nil {
		t.Fatal(err)
	}
	other, err := repro.GenerateUniform(16, 16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.NewPipelineFromSavedPlan(other, repro.DefaultConfig(), &buf2); err == nil {
		t.Fatalf("mismatched saved plan accepted")
	}
}

func TestPipelinePlanMetrics(t *testing.T) {
	m := scrambled(t)
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Plan()
	if plan.Preprocess <= 0 {
		t.Fatalf("preprocess time missing")
	}
	if plan.DenseRatioBefore < 0 || plan.DenseRatioBefore > 1 ||
		plan.DenseRatioAfter < 0 || plan.DenseRatioAfter > 1 {
		t.Fatalf("dense ratios out of range")
	}
	if p.Matrix() != m {
		t.Fatalf("Matrix() does not return the original")
	}
}

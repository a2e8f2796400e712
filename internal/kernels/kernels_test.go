package kernels

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/paperex"
	"repro/internal/sparse"
)

// naiveSpMM is the O(M·N·K) dense reference.
func naiveSpMM(s *sparse.CSR, x *dense.Matrix) *dense.Matrix {
	sd := s.ToDense()
	y := dense.New(s.Rows, x.Cols)
	for i := 0; i < s.Rows; i++ {
		for c := 0; c < s.Cols; c++ {
			v := sd[i][c]
			if v == 0 {
				continue
			}
			for k := 0; k < x.Cols; k++ {
				y.Data[i*x.Cols+k] += float32(v * x.At(c, k))
			}
		}
	}
	return y
}

// naiveSDDMM is the dense reference for Alg 2.
func naiveSDDMM(s *sparse.CSR, x, y *dense.Matrix) *sparse.CSR {
	out := s.Clone()
	for i := 0; i < s.Rows; i++ {
		cols, svals := s.RowCols(i), s.RowVals(i)
		ovals := out.Val[s.RowPtr[i]:s.RowPtr[i+1]]
		for j := range cols {
			dot := float32(0)
			for k := 0; k < x.Cols; k++ {
				dot += float32(y.At(i, k) * x.At(int(cols[j]), k))
			}
			ovals[j] = dot * svals[j]
		}
	}
	return out
}

func randomMatrix(rng *rand.Rand, rows, cols, maxPerRow int) *sparse.CSR {
	sets := make([][]int32, rows)
	vals := make([][]float32, rows)
	for i := range sets {
		n := rng.Intn(maxPerRow + 1)
		if n > cols {
			n = cols
		}
		seen := map[int32]bool{}
		for len(seen) < n {
			seen[int32(rng.Intn(cols))] = true
		}
		for c := range seen {
			sets[i] = append(sets[i], c)
			vals[i] = append(vals[i], rng.Float32()*2-1)
		}
	}
	m, err := sparse.FromRows(rows, cols, sets, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestSpMMPaperExample(t *testing.T) {
	m := paperex.Matrix()
	x := dense.NewRandom(m.Cols, 8, 1)
	y, err := SpMMRowWise(m, x)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSpMM(m, x)
	if d := dense.MaxAbsDiff(y, want); d > 1e-5 {
		t.Fatalf("SpMM differs from naive by %v", d)
	}
}

func TestSpMMShapeErrors(t *testing.T) {
	m := paperex.Matrix() // 6x6
	x := dense.New(5, 4)  // wrong inner dimension
	if _, err := SpMMRowWise(m, x); err == nil {
		t.Fatalf("accepted shape mismatch")
	}
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := SpMMASpTIntoCtx(context.Background(), dense.New(m.Rows, x.Cols), tl, x); err == nil {
		t.Fatalf("ASpT accepted shape mismatch")
	}
}

func TestSDDMMShapeErrors(t *testing.T) {
	m := paperex.Matrix() // 6x6
	okX, okY := dense.New(6, 4), dense.New(6, 4)
	if _, err := SDDMMRowWise(m, okX, okY); err != nil {
		t.Fatalf("rejected valid shapes: %v", err)
	}
	if _, err := SDDMMRowWise(m, dense.New(6, 4), dense.New(6, 5)); err == nil {
		t.Fatalf("accepted K mismatch")
	}
	if _, err := SDDMMRowWise(m, dense.New(5, 4), okY); err == nil {
		t.Fatalf("accepted X row mismatch")
	}
	if _, err := SDDMMRowWise(m, okX, dense.New(5, 4)); err == nil {
		t.Fatalf("accepted Y row mismatch")
	}
	tl, _ := aspt.Build(m, aspt.DefaultParams())
	if err := SDDMMASpTIntoCtx(context.Background(), m.Clone(), tl, dense.New(5, 4), okY); err == nil {
		t.Fatalf("ASpT SDDMM accepted shape mismatch")
	}
}

func TestSpMMEmptyMatrix(t *testing.T) {
	m := &sparse.CSR{Rows: 3, Cols: 4, RowPtr: []int32{0, 0, 0, 0}}
	x := dense.NewRandom(4, 5, 2)
	y, err := SpMMRowWise(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Data {
		if v != 0 {
			t.Fatalf("empty matrix produced nonzero output")
		}
	}
}

func TestSDDMMScalesByValues(t *testing.T) {
	// SDDMM must multiply by the sparse values (the Hadamard product),
	// not just sample the dot products.
	m, err := sparse.FromRows(1, 2, [][]int32{{0, 1}}, [][]float32{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	x := dense.New(2, 1)
	x.Set(0, 0, 5)
	x.Set(1, 0, 7)
	y := dense.New(1, 1)
	y.Set(0, 0, 1)
	out, err := SDDMMRowWise(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if out.Val[0] != 10 || out.Val[1] != 21 {
		t.Fatalf("SDDMM values = %v, want [10 21]", out.Val)
	}
}

func TestFlops(t *testing.T) {
	if got := Flops(100, 512); got != 102400 {
		t.Fatalf("Flops = %v", got)
	}
}

// Property: row-wise SpMM matches the naive dense reference.
func TestPropertySpMMMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(30), 1+rng.Intn(20), 6)
		x := dense.NewRandom(m.Cols, 1+rng.Intn(16), seed)
		y, err := SpMMRowWise(m, x)
		if err != nil {
			return false
		}
		return dense.MaxAbsDiff(y, naiveSpMM(m, x)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ASpT SpMM equals row-wise SpMM for any tiling parameters.
func TestPropertySpMMASpTEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(60), 1+rng.Intn(30), 8)
		p := aspt.Params{PanelSize: 1 + rng.Intn(8), DenseThreshold: 2 + rng.Intn(3)}
		tl, err := aspt.Build(m, p)
		if err != nil {
			return false
		}
		x := dense.NewRandom(m.Cols, 1+rng.Intn(12), seed)
		ya := dense.New(m.Rows, x.Cols)
		if err := SpMMASpTIntoCtx(context.Background(), ya, tl, x); err != nil {
			return false
		}
		yr, err := SpMMRowWise(m, x)
		if err != nil {
			return false
		}
		return dense.MaxAbsDiff(ya, yr) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SDDMM row-wise matches the naive reference.
func TestPropertySDDMMMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(25), 1+rng.Intn(20), 5)
		k := 1 + rng.Intn(10)
		x := dense.NewRandom(m.Cols, k, seed)
		y := dense.NewRandom(m.Rows, k, seed+1)
		got, err := SDDMMRowWise(m, x, y)
		if err != nil {
			return false
		}
		want := naiveSDDMM(m, x, y)
		for j := range got.Val {
			if math.Abs(float64(got.Val[j]-want.Val[j])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SpMM is linear in the sparse values: SpMM(2S, X) = 2·SpMM(S, X).
func TestPropertySpMMLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(20), 5)
		x := dense.NewRandom(m.Cols, 4, seed)
		y1, err := SpMMRowWise(m, x)
		if err != nil {
			return false
		}
		m2 := m.Clone()
		for j := range m2.Val {
			m2.Val[j] *= 2
		}
		y2, err := SpMMRowWise(m2, x)
		if err != nil {
			return false
		}
		for i := range y1.Data {
			if math.Abs(float64(y2.Data[i]-2*y1.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

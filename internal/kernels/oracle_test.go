package kernels

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/sparse"
)

// oracleKs covers every K-strip tail: below, at and above the 4- and
// 8-wide strips, and a wide K made of full strips only.
var oracleKs = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64}

// term is one nonzero's contribution to an output row.
type term struct {
	col int32
	val float32
}

// oracleSpMM is the bit-exact reference for the SpMM kernels. Output
// row i is built from frags(i): each fragment's terms are summed in
// order into a float32 accumulator starting at 0, the first fragment is
// stored, and later fragments are added to it in order. One fragment is
// the plain Alg 1 loop; merge's split rows carry one fragment per chunk.
func oracleSpMM(rows int, x *dense.Matrix, frags func(i int) [][]term) *dense.Matrix {
	k := x.Cols
	y := dense.New(rows, k)
	for i := 0; i < rows; i++ {
		yi := y.Row(i)
		for f, frag := range frags(i) {
			for kk := 0; kk < k; kk++ {
				var acc float32
				for _, t := range frag {
					acc += t.val * x.At(int(t.col), kk)
				}
				if f == 0 {
					yi[kk] = acc
				} else {
					yi[kk] += acc
				}
			}
		}
	}
	return y
}

func terms(cols []int32, vals []float32) []term {
	out := make([]term, len(cols))
	for j, c := range cols {
		out[j] = term{c, vals[j]}
	}
	return out
}

// csrFrags is the row-wise order: the CSR row as stored.
func csrFrags(s *sparse.CSR) func(int) [][]term {
	return func(i int) [][]term { return [][]term{terms(s.RowCols(i), s.RowVals(i))} }
}

// asptFrags is the ASpT order: the dense-tile part, then the leftover
// part, into one accumulator.
func asptFrags(t *aspt.Matrix) func(int) [][]term {
	return func(i int) [][]term {
		tile := terms(t.TileRowCols(i), t.TileRowVals(i))
		return [][]term{append(tile, terms(t.Rest.RowCols(i), t.Rest.RowVals(i))...)}
	}
}

// hybFrags is the HYB order: the row's slab slots, then its spill
// entries, into one accumulator.
func hybFrags(h *ellpack.Hybrid) func(int) [][]term {
	e := h.ELL
	return func(i int) [][]term {
		var ts []term
		for s := 0; s < int(e.RowLen[i]); s++ {
			ts = append(ts, term{e.Cols[s*e.Rows+i], e.Vals[s*e.Rows+i]})
		}
		for _, en := range h.Spill {
			if int(en.Row) == i {
				ts = append(ts, term{en.Col, en.Val})
			}
		}
		return [][]term{ts}
	}
}

// mergeFrags is the merge kernel's fix-up order at the current
// GOMAXPROCS: the flat nonzero range is cut into equal slices, a row's
// first fragment is written by its owning chunk, and each later
// fragment is a carry added in chunk order.
func mergeFrags(s *sparse.CSR) func(int) [][]term {
	nnz := s.NNZ()
	nchunks := min(mergeWorkers(nnz)*chunksPerWorker, nnz)
	cut := func(c int) int { return int(int64(nnz) * int64(c) / int64(nchunks)) }
	return func(i int) [][]term {
		lo, hi := int(s.RowPtr[i]), int(s.RowPtr[i+1])
		var out [][]term
		for c := 0; c < nchunks; c++ {
			a, b := max(lo, cut(c)), min(hi, cut(c+1))
			if a < b {
				out = append(out, terms(s.ColIdx[a:b], s.Val[a:b]))
			}
		}
		if len(out) == 0 {
			out = [][]term{nil}
		}
		return out
	}
}

// oracleMatrix has short rows, empty rows (leading, interior and
// trailing) and one hub row holding most of the columns, so HYB spills
// and the merge kernel splits the hub across several chunks. Few
// columns give every ASpT panel dense tiles.
func oracleMatrix(rng *rand.Rand, rows, cols int) *sparse.CSR {
	sets := make([][]int32, rows)
	vals := make([][]float32, rows)
	for i := range sets {
		n := min(1+rng.Intn(6), cols)
		switch {
		case i == 0, i%9 == 4, i >= rows-3:
			n = 0
		case i == rows/5:
			n = cols * 15 / 16
		}
		for _, c := range rng.Perm(cols)[:n] {
			sets[i] = append(sets[i], int32(c))
			vals[i] = append(vals[i], rng.Float32()*2-1)
		}
	}
	m, err := sparse.FromRows(rows, cols, sets, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func randomRowMap(rng *rand.Rand, rows int) []int32 {
	dst := make([]int32, rows)
	for i, r := range rng.Perm(rows) {
		dst[i] = int32(r)
	}
	return dst
}

// spmmRowsKernel is the shape shared by the row-mapped SpMM entry
// points, with the kernel's operand bound.
type spmmRowsKernel func(ctx context.Context, y *dense.Matrix, dst []int32, x *dense.Matrix) error

type oracleCase struct {
	name  string
	run   spmmRowsKernel
	frags func(int) [][]term
}

// oracleCases binds every SpMM kernel to m (or its tiled / HYB forms)
// with the reference order it must reproduce.
func oracleCases(t testing.TB, m *sparse.CSR) []oracleCase {
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ellpack.FromCSRHybrid(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleCase{
		{"rowwise", func(ctx context.Context, y *dense.Matrix, dst []int32, x *dense.Matrix) error {
			return SpMMRowWiseIntoRowsCtx(ctx, y, dst, m, x)
		}, csrFrags(m)},
		{"aspt", func(ctx context.Context, y *dense.Matrix, dst []int32, x *dense.Matrix) error {
			return SpMMASpTIntoRowsCtx(ctx, y, dst, tl, x)
		}, asptFrags(tl)},
		{"hyb/spill", func(ctx context.Context, y *dense.Matrix, dst []int32, x *dense.Matrix) error {
			return SpMMHybridIntoRowsCtx(ctx, y, dst, spilled, x)
		}, hybFrags(spilled)},
		{"hyb/nospill", func(ctx context.Context, y *dense.Matrix, dst []int32, x *dense.Matrix) error {
			return SpMMHybridIntoRowsCtx(ctx, y, dst, whole, x)
		}, hybFrags(whole)},
		{"merge", func(ctx context.Context, y *dense.Matrix, dst []int32, x *dense.Matrix) error {
			return SpMMMergeIntoRowsCtx(ctx, y, dst, m, x)
		}, mergeFrags(m)},
	}
}

// checkOracle runs c at x with row map dst (nil = identity) over an
// output pre-filled with noise, and requires every element of row
// dst[i] to carry exactly the oracle's bits for row i.
func checkOracle(t testing.TB, c oracleCase, x *dense.Matrix, dst []int32, want *dense.Matrix) {
	t.Helper()
	y := dense.NewRandom(want.Rows, want.Cols, 99)
	if err := c.run(context.Background(), y, dst, x); err != nil {
		t.Fatalf("%s K=%d: %v", c.name, x.Cols, err)
	}
	for i := 0; i < want.Rows; i++ {
		r := i
		if dst != nil {
			r = int(dst[i])
		}
		got, exp := y.Row(r), want.Row(i)
		for kk := range exp {
			if math.Float32bits(got[kk]) != math.Float32bits(exp[kk]) {
				t.Fatalf("%s K=%d mapped=%v: row %d col %d = %v (bits %#x), oracle %v (bits %#x)",
					c.name, x.Cols, dst != nil, i, kk, got[kk], math.Float32bits(got[kk]),
					exp[kk], math.Float32bits(exp[kk]))
			}
		}
	}
}

// TestSpMMKernelsMatchOracle pins every register-blocked SpMM kernel to
// the plain float32 loop, bit for bit, at every K-strip tail, with and
// without a row map. Row-wise, ASpT and HYB sum each row in nonzero
// order; merge is compared with its own fix-up order, not with row-wise.
func TestSpMMKernelsMatchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(17))
	m := oracleMatrix(rng, 300, 96)
	cases := oracleCases(t, m)
	if tl, _ := aspt.Build(m, aspt.DefaultParams()); tl.NNZDense() == 0 || tl.Rest.NNZ() == 0 {
		t.Fatalf("oracle matrix has %d tile and %d rest nonzeros; want both", tl.NNZDense(), tl.Rest.NNZ())
	}
	if h, _ := ellpack.FromCSRHybrid(m, 0); len(h.Spill) == 0 {
		t.Fatal("oracle matrix does not spill at the default HYB quantile")
	}
	hub := m.Rows / 5
	if f := mergeFrags(m)(hub); len(f) < 3 {
		t.Fatalf("hub row splits into %d merge fragments; want >= 3", len(f))
	}
	dst := randomRowMap(rng, m.Rows)
	for _, k := range oracleKs {
		x := dense.NewRandom(m.Cols, k, int64(k))
		for _, c := range cases {
			want := oracleSpMM(m.Rows, x, c.frags)
			checkOracle(t, c, x, nil, want)
			checkOracle(t, c, x, dst, want)
		}
	}
}

// TestRowMapLengthChecked rejects a row map of the wrong length on
// every row-mapped entry point.
func TestRowMapLengthChecked(t *testing.T) {
	m := oracleMatrix(rand.New(rand.NewSource(3)), 40, 16)
	x := dense.NewRandom(m.Cols, 4, 1)
	y := dense.New(m.Rows, 4)
	for _, c := range oracleCases(t, m) {
		if err := c.run(context.Background(), y, make([]int32, m.Rows-1), x); err == nil {
			t.Errorf("%s accepted a short row map", c.name)
		}
	}
}

// FuzzSpMMKernels checks every SpMM kernel against the oracle on a
// small random CSR, K and row permutation drawn from the fuzz input.
func FuzzSpMMKernels(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(12), uint8(5), true)
	f.Add(int64(2), uint8(3), uint8(40), uint8(17), false)
	f.Add(int64(3), uint8(1), uint8(1), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, k uint8, mapped bool) {
		r, c, kk := 1+int(rows)%64, 1+int(cols)%48, 1+int(k)%72
		rng := rand.New(rand.NewSource(seed))
		m := oracleMatrix(rng, r, c)
		var dst []int32
		if mapped {
			dst = randomRowMap(rng, r)
		}
		x := dense.NewRandom(c, kk, seed)
		for _, oc := range oracleCases(t, m) {
			checkOracle(t, oc, x, dst, oracleSpMM(r, x, oc.frags))
		}
	})
}

package kernels

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/par"
	"repro/internal/sparse"
)

// oracleKs covers every K-strip boundary: below, at and above the 4-,
// 8- and 16-wide strips, one and two 16-wide strips followed by 4-wide
// strips and a scalar tail, and wide Ks made of full strips only.
var oracleKs = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 21, 32, 33, 48, 64}

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
					acc += float32(t.val * x.At(int(t.col), kk))
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

// sddmmOut returns an output for an SDDMM of s through row map dst:
// the unpermuted matrix, whose row dst[i] is row i of s (s's own
// structure for a nil map).
func sddmmOut(t testing.TB, s *sparse.CSR, dst []int32) *sparse.CSR {
	t.Helper()
	if dst == nil {
		return s.Clone()
	}
	out, err := sparse.PermuteRows(s, sparse.InversePermutation(dst))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleSDDMM is the bit-exact reference for the SDDMM kernel: row i of
// s lands in out's row r = dst[i] (i for a nil map) and reads Y row r,
// and each nonzero is one float32 dot over k in order from 0, with every
// product rounded before the add, scaled by the nonzero's value.
func oracleSDDMM(s, out *sparse.CSR, dst []int32, x, y *dense.Matrix) []float32 {
	want := make([]float32, len(out.Val))
	for i := 0; i < s.Rows; i++ {
		r := i
		if dst != nil {
			r = int(dst[i])
		}
		o := want[out.RowPtr[r]:]
		for j, c := range s.RowCols(i) {
			var dot float32
			for kk := 0; kk < x.Cols; kk++ {
				dot += float32(y.At(r, kk) * x.At(int(c), kk))
			}
			o[j] = dot * s.RowVals(i)[j]
		}
	}
	return want
}

// checkSDDMMOracle runs the SDDMM kernel on s at x with row map dst
// (nil = identity) over an output pre-filled with noise, and requires
// every value to carry exactly the oracle's bits. A column outside X's
// rows, planted past the end and below zero, must then fail the call
// as a *par.PanicError.
func checkSDDMMOracle(t testing.TB, s *sparse.CSR, x *dense.Matrix, dst []int32) {
	t.Helper()
	ctx := context.Background()
	y := dense.NewRandom(s.Rows, x.Cols, int64(x.Cols)+7)
	out := sddmmOut(t, s, dst)
	want := oracleSDDMM(s, out, dst, x, y)
	for j := range out.Val {
		out.Val[j] = float32(math.NaN())
	}
	if err := SDDMMRowWiseIntoRowsCtx(ctx, out, dst, s, x, y); err != nil {
		t.Fatalf("sddmm K=%d: %v", x.Cols, err)
	}
	for j, w := range want {
		if math.Float32bits(out.Val[j]) != math.Float32bits(w) {
			t.Fatalf("sddmm K=%d mapped=%v: value %d = %v (bits %#x), oracle %v (bits %#x)",
				x.Cols, dst != nil, j, out.Val[j], math.Float32bits(out.Val[j]), w, math.Float32bits(w))
		}
	}
	if s.NNZ() == 0 {
		return
	}
	for _, bad := range []int32{int32(s.Cols), -1} {
		bs := s.Clone()
		bs.ColIdx[len(bs.ColIdx)/2] = bad
		if dst == nil {
			out = bs.Clone()
		}
		var pe *par.PanicError
		if err := SDDMMRowWiseIntoRowsCtx(ctx, out, dst, bs, x, y); !errors.As(err, &pe) {
			t.Fatalf("sddmm K=%d mapped=%v column %d: got %v, want *par.PanicError", x.Cols, dst != nil, bad, err)
		}
	}
}

// TestSpMMKernelsMatchOracle pins every register-blocked SpMM kernel to
// the plain float32 loop, bit for bit, at every K-strip tail, with and
// without a row map, on every strip path. Row-wise, ASpT and HYB sum
// each row in nonzero order; merge is compared with its own fix-up
// order, not with row-wise. The SDDMM kernel is pinned the same way to
// its one-dot-per-nonzero loop, and must fail on a bad column.
func TestSpMMKernelsMatchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(17))
	m := oracleMatrix(rng, 300, 96)
	cases := oracleCases(t, m)
	if tl, _ := aspt.Build(m, aspt.DefaultParams()); tl.NNZDense() == 0 || tl.Rest.NNZ() == 0 {
		t.Fatalf("oracle matrix has %d tile and %d rest nonzeros; want both", tl.NNZDense(), tl.Rest.NNZ())
	}
	hub := m.Rows / 5
	// HYB shapes: a slab several slots wide (so its stride is not one
	// element), the hub row split between slab and spill, and a HYB
	// with no spill at all.
	if h, _ := ellpack.FromCSRHybrid(m, 0); h.ELL.Width < 2 || h.ELL.RowLen[hub] == 0 ||
		searchSpillRow(h.Spill, int32(hub)) == searchSpillRow(h.Spill, int32(hub+1)) {
		t.Fatalf("default-quantile HYB has width %d and hub slab %d, spill %d; want width >= 2 and the hub in both",
			h.ELL.Width, h.ELL.RowLen[hub], len(h.Spill))
	}
	if h, _ := ellpack.FromCSRHybrid(m, 1); len(h.Spill) != 0 {
		t.Fatalf("whole-row HYB spills %d entries; want none", len(h.Spill))
	}
	if f := mergeFrags(m)(hub); len(f) < 3 {
		t.Fatalf("hub row splits into %d merge fragments; want >= 3", len(f))
	}
	dst := randomRowMap(rng, m.Rows)
	onStripPaths(t, func(t *testing.T) {
		for _, k := range oracleKs {
			x := dense.NewRandom(m.Cols, k, int64(k))
			for _, c := range cases {
				want := oracleSpMM(m.Rows, x, c.frags)
				checkOracle(t, c, x, nil, want)
				checkOracle(t, c, x, dst, want)
			}
			checkSDDMMOracle(t, m, x, nil)
			checkSDDMMOracle(t, m, x, dst)
		}
	})
}

// onStripPaths runs f once per path of the strip primitive this CPU
// can run (stripPaths), each as a subtest with that path forced.
func onStripPaths(t *testing.T, f func(t *testing.T)) {
	for _, path := range stripPaths() {
		t.Run(path, func(t *testing.T) {
			defer forceStripPath(path)()
			f(t)
		})
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

// TestRowMapRangeChecked plants a row-map entry outside y's rows, at
// y.Rows and at -1, into every row-mapped SpMM kernel: each must fail
// with a *par.PanicError on every strip path, at K = 1 and 3 (the
// strip primitive's scalar last walk only), 4 and 16 (strips only) and
// 5 and 21 (both), whether the entry is the first row's, the hub's or
// the last row's, or the row after the first or the hub (K = 1 checks
// rows two at a time, so both rows of a pair are planted).
func TestRowMapRangeChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := oracleMatrix(rng, 40, 16)
	cases := oracleCases(t, m)
	onStripPaths(t, func(t *testing.T) {
		for _, k := range []int{1, 3, 4, 5, 16, 21} {
			x := dense.NewRandom(m.Cols, k, 1)
			y := dense.New(m.Rows, k)
			for _, at := range []int{0, 1, m.Rows / 5, m.Rows/5 + 1, m.Rows - 1} {
				for _, bad := range []int32{int32(m.Rows), -1} {
					dst := randomRowMap(rng, m.Rows)
					dst[at] = bad
					for _, c := range cases {
						var pe *par.PanicError
						if err := c.run(context.Background(), y, dst, x); !errors.As(err, &pe) {
							t.Errorf("%s K=%d row %d mapped to %d: got %v, want *par.PanicError", c.name, k, at, bad, err)
						}
					}
				}
			}
		}
	})
}

// TestSDDMMRowMapChecksOutput: the row-mapped SDDMM rejects a short row
// map, an in-place write over S, and an output of another structure,
// and an output whose row segments do not match S's rows under the map
// fails as a *par.PanicError without writing past its values.
func TestSDDMMRowMapChecksOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := oracleMatrix(rng, 40, 16)
	x, y := dense.NewRandom(m.Cols, 4, 1), dense.NewRandom(m.Rows, 4, 2)
	dst := randomRowMap(rng, m.Rows)
	ctx := context.Background()
	if err := SDDMMRowWiseIntoRowsCtx(ctx, m.Clone(), make([]int32, m.Rows-1), m, x, y); err == nil {
		t.Error("SDDMM accepted a short row map")
	}
	if err := SDDMMRowWiseIntoRowsCtx(ctx, m, dst, m, x, y); err == nil {
		t.Error("SDDMM accepted an in-place write over S with a row map")
	}
	if err := SDDMMRowWiseIntoRowsCtx(ctx, oracleMatrix(rng, 40, 16), nil, m, x, y); err == nil {
		t.Error("SDDMM accepted an output of another structure")
	}
	// Outputs of the same shape and nonzero count whose row segments
	// disagree with m's rows under an explicit identity map. Spare
	// capacity after out.Val holds a sentinel the kernel must not reach.
	ident := make([]int32, m.Rows)
	for i := range ident {
		ident[i] = int32(i)
	}
	hub := m.Rows / 5
	bad := map[string]func(rp []int32){
		// Rows hub and hub+1 trade lengths.
		"traded rows": func(rp []int32) { rp[hub+1] = rp[hub] + rp[hub+2] - rp[hub+1] },
		// Every row keeps its length, but the last one ends past out.Val.
		"shifted rows": func(rp []int32) {
			for i := range rp {
				rp[i]++
			}
		},
	}
	for name, corrupt := range bad {
		out := sddmmOut(t, m, nil)
		corrupt(out.RowPtr)
		vals := make([]float32, len(out.Val)+1)
		vals[len(out.Val)] = 42
		out.Val = vals[:len(out.Val)]
		var pe *par.PanicError
		if err := SDDMMRowWiseIntoRowsCtx(ctx, out, ident, m, x, y); !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want *par.PanicError", name, err)
		}
		if v := vals[len(out.Val)]; v != 42 {
			t.Errorf("%s: wrote past the output values (%v)", name, v)
		}
	}
}

// FuzzSpMMKernels checks every SpMM kernel and the SDDMM kernel against
// their oracles on a small random CSR, K and row permutation drawn from
// the fuzz input, on every strip path. K runs from 1 to 72, so rows
// cross up to four 16-wide strips, then 8- and 4-wide strips and the
// scalar tail.
func FuzzSpMMKernels(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(12), uint8(5), true)
	f.Add(int64(2), uint8(3), uint8(40), uint8(17), false)
	f.Add(int64(3), uint8(1), uint8(1), uint8(64), true)
	f.Add(int64(4), uint8(40), uint8(30), uint8(36), false)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, k uint8, mapped bool) {
		r, c, kk := 1+int(rows)%64, 1+int(cols)%48, 1+int(k)%72
		rng := rand.New(rand.NewSource(seed))
		m := oracleMatrix(rng, r, c)
		var dst []int32
		if mapped {
			dst = randomRowMap(rng, r)
		}
		x := dense.NewRandom(c, kk, seed)
		for _, path := range stripPaths() {
			t.Logf("strip path %s", path)
			func() {
				defer forceStripPath(path)()
				for _, oc := range oracleCases(t, m) {
					checkOracle(t, oc, x, dst, oracleSpMM(r, x, oc.frags))
				}
				checkSDDMMOracle(t, m, x, dst)
			}()
		}
	})
}

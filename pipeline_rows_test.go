package repro_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/dense"
	"repro/internal/faultinject"
	"repro/internal/kernels"
)

// rowMapPipelines builds a reordered pipeline (both rounds forced, so
// its RowPerm is not the identity) and a no-reordering pipeline for m.
func rowMapPipelines(t *testing.T, m *repro.Matrix) map[string]*repro.Pipeline {
	t.Helper()
	cfg := repro.DefaultConfig()
	cfg.Force = true
	rr, err := repro.NewPipeline(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	identity := true
	for i, r := range rr.Plan().RowPerm {
		identity = identity && int(r) == i
	}
	if identity {
		t.Fatal("forced reordering left the identity permutation")
	}
	nr, err := repro.NewPipelineNR(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*repro.Pipeline{"reordered": rr, "nr": nr}
}

// twoPassSpMM is the reference composition the pipeline's row map
// replaces: the plan's kernel into reordered row space, then a gather
// through InvRowPerm into the caller's order.
func twoPassSpMM(t *testing.T, p *repro.Pipeline, x *repro.Dense) *repro.Dense {
	t.Helper()
	plan, ctx := p.Plan(), context.Background()
	yre := repro.NewDense(p.Matrix().Rows, x.Cols)
	kernel := kernels.SpMMRowWiseIntoCtx
	if p.Kernel() == repro.KernelMerge {
		kernel = kernels.SpMMMergeIntoCtx
	}
	if err := kernel(ctx, yre, plan.Reordered, x); err != nil {
		t.Fatal(err)
	}
	y := repro.NewDense(yre.Rows, yre.Cols)
	if err := dense.PermuteRowsInto(y, yre, plan.InvRowPerm); err != nil {
		t.Fatal(err)
	}
	return y
}

func sameBits(a, b *repro.Dense) int {
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return i
		}
	}
	return -1
}

// TestPipelineSpMMWritesCallerRows checks that Pipeline.SpMMIntoCtx,
// whose kernels write each reordered row straight to its original row,
// matches the two-pass kernel-then-permute composition bit for bit, on
// a reordered plan and on an NR plan, for both served kernels: row-wise
// on a scrambled-cluster matrix and merge on a shuffled R-MAT one, each
// pick asserted. Against the row-wise kernel on the unpermuted matrix
// it is bit-identical where the kernel sums each row in CSR order
// (row-wise), and within the reassociation tolerance where it does not
// (merge's carries).
func TestPipelineSpMMWritesCallerRows(t *testing.T) {
	rowwise, err := repro.GenerateScrambledClusters(1024, 1024, 64, 4411)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		m    *repro.Matrix
		pick repro.Kernel
	}{{rowwise, repro.KernelRowWise}, {skewed(t), repro.KernelMerge}} {
		m, k := in.m, in.pick
		x := repro.NewRandomDense(m.Cols, 17, 3)
		want, err := repro.SpMM(m, x)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range rowMapPipelines(t, m) {
			if p.Kernel() != k {
				t.Fatalf("%s: pipeline kernel = %v, want %v", name, p.Kernel(), k)
			}
			y := repro.NewRandomDense(m.Rows, x.Cols, 5) // noise: every element must be overwritten
			if err := p.SpMMIntoCtx(context.Background(), y, x); err != nil {
				t.Fatal(err)
			}
			if i := sameBits(y, twoPassSpMM(t, p, x)); i >= 0 {
				t.Fatalf("%v/%s: element %d differs from kernel-then-permute", k, name, i)
			}
			if k == repro.KernelRowWise {
				if i := sameBits(y, want); i >= 0 {
					t.Fatalf("%v/%s: element %d differs from row-wise on the unpermuted matrix", k, name, i)
				}
			} else if d := dense.MaxAbsDiff(y, want); d > 1e-4 {
				t.Fatalf("%v/%s: differs from row-wise on the unpermuted matrix by %v", k, name, d)
			}
		}
	}
}

// TestPipelineSpMMIntoNoScratch pins Pipeline.SpMMIntoCtx on a
// reordered and on an NR plan at zero steady-state allocations (with
// the race detector's pool allowance) and requires it to take nothing
// from the dense scratch pool: the kernels write the caller's rows
// directly, so there is no reordered intermediate.
func TestPipelineSpMMIntoNoScratch(t *testing.T) {
	m, err := repro.GenerateScrambledClusters(1024, 1024, 64, 4413)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := repro.NewRandomDense(m.Cols, 16, 1)
	y := repro.NewDense(m.Rows, 16)
	var poolCalls atomic.Int64
	defer faultinject.Set("dense.pool", func() error { poolCalls.Add(1); return nil })()
	for name, p := range rowMapPipelines(t, m) {
		call := func() {
			if err := p.SpMMIntoCtx(ctx, y, x); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			call()
		}
		poolCalls.Store(0)
		limit, attempts := 0.0, 3
		if raceDetectorEnabled {
			limit, attempts = 2, 10 // the detector drops sync.Pool puts at random
		}
		allocs := math.Inf(1)
		for a := 0; a < attempts && allocs > limit; a++ {
			allocs = testing.AllocsPerRun(20, call)
		}
		if allocs > limit {
			t.Errorf("%s (%v): SpMMIntoCtx allocates %v objects per call, want <= %v", name, p.Kernel(), allocs, limit)
		}
		if n := poolCalls.Load(); n != 0 {
			t.Errorf("%s (%v): SpMMIntoCtx made %d dense-pool calls, want 0", name, p.Kernel(), n)
		}
	}
}

// TestPipelineSpMMRejectsAliasedOperand: the kernels write output rows
// while they still read operand rows, so an output sharing storage with
// the operand is an error, not a silently wrong product.
func TestPipelineSpMMRejectsAliasedOperand(t *testing.T) {
	m, err := repro.GenerateScrambledClusters(1024, 1024, 64, 4415)
	if err != nil {
		t.Fatal(err)
	}
	// Operand and output are well-shaped views of one buffer: y == x,
	// and y one row past x.
	buf := repro.NewRandomDense(m.Cols+1, 4, 1)
	x := &repro.Dense{Rows: m.Cols, Cols: 4, Data: buf.Data[:m.Cols*4]}
	shifted := &repro.Dense{Rows: m.Rows, Cols: 4, Data: buf.Data[4:]}
	for name, p := range rowMapPipelines(t, m) {
		if err := p.SpMMIntoCtx(context.Background(), x, x); err == nil {
			t.Errorf("%s: SpMMIntoCtx accepted y == x", name)
		}
		if err := p.SpMMIntoCtx(context.Background(), shifted, x); err == nil {
			t.Errorf("%s: SpMMIntoCtx accepted an output overlapping x", name)
		}
	}
}

// sameValBits reports the first value of a that differs in bits from
// b's, or -1.
func sameValBits(a, b *repro.Matrix) int {
	for i := range a.Val {
		if math.Float32bits(a.Val[i]) != math.Float32bits(b.Val[i]) {
			return i
		}
	}
	return -1
}

// noisyClone returns a clone of m whose values are NaN, so an SDDMM
// into it must overwrite every value.
func noisyClone(m *repro.Matrix) *repro.Matrix {
	out := m.Clone()
	for i := range out.Val {
		out.Val[i] = float32(math.NaN())
	}
	return out
}

// TestPipelineSDDMMMatchesRowWise checks that SDDMM through the plan's
// row map — on a reordered and an NR pipeline, a sharded pipeline, and
// a live pipeline serving overlaid and appended rows — is bit-identical
// to the row-wise kernel on the unpermuted matrix: every nonzero is one
// dot in k order whichever row order the kernel visits. Random float
// operands, unlike the live model tests' integer ones, make any change
// of summation order visible.
func TestPipelineSDDMMMatchesRowWise(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m, err := repro.GenerateScrambledClusters(1024, 1024, 64, 4421)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := repro.NewRandomDense(m.Cols, 17, 3)
	y := repro.NewRandomDense(m.Rows, 17, 4)
	want, err := kernels.SDDMMRowWise(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, run func(out *repro.Matrix) error) {
		t.Helper()
		out := noisyClone(m)
		if err := run(out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i := sameValBits(out, want); i >= 0 {
			t.Fatalf("%s: value %d differs from row-wise on the unpermuted matrix", name, i)
		}
	}
	for name, p := range rowMapPipelines(t, m) {
		check(name, func(out *repro.Matrix) error { return p.SDDMMIntoCtx(ctx, out, x, y) })
	}
	cfg := repro.DefaultConfig()
	cfg.Force = true
	sp, err := repro.NewShardedPipeline(m, cfg, m.NNZ()/3)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Panels() < 2 {
		t.Fatalf("matrix did not shard: %d panel(s)", sp.Panels())
	}
	// Every width passes the gate: the calls run the reordered panels.
	repro.BuildReorderedForTest(t, sp, 8)
	check("sharded", func(out *repro.Matrix) error { return sp.SDDMMIntoCtx(ctx, out, x, y) })

	// Live: rows 5 and 700 replaced and one row appended, with the
	// rebuild off so they are served from the overlay beside the base.
	l, err := repro.NewLivePipelineCtx(ctx, m, cfg, repro.LiveConfig{RebuildDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, l.Online(), 8)
	def := repro.RowDef{Cols: []int32{1, 9, 400, 1000}, Vals: []float32{0.5, -2, 3, 0.25}}
	if err := l.Mutate(ctx, repro.Mutation{
		ReplaceRows: []repro.RowUpdate{{Row: 5, Def: def}, {Row: 700, Def: repro.RowDef{Cols: []int32{7}, Vals: []float32{-1}}}},
		AppendRows:  []repro.RowDef{def},
	}); err != nil {
		t.Fatal(err)
	}
	cur := l.Matrix()
	yl := repro.NewRandomDense(cur.Rows, x.Cols, 6)
	wantLive, err := kernels.SDDMMRowWise(cur, x, yl)
	if err != nil {
		t.Fatal(err)
	}
	// Twice: the first call runs the §4 trial, the second the winner.
	for i := 0; i < 2; i++ {
		out := noisyClone(cur)
		if err := l.SDDMMIntoCtx(ctx, out, x, yl); err != nil {
			t.Fatal(err)
		}
		if j := sameValBits(out, wantLive); j >= 0 {
			t.Fatalf("live call %d: value %d differs from row-wise on the fused matrix", i, j)
		}
	}
}

// TestPipelineSDDMMIntoNoScratch pins Pipeline.SDDMMIntoCtx on a
// reordered and on an NR plan at zero steady-state allocations (with
// the race detector's pool allowance) and requires it to take nothing
// from the dense scratch pool: the kernel reads Y and writes the
// caller's values through the row map, so there is no permuted Y and
// no reordered intermediate.
func TestPipelineSDDMMIntoNoScratch(t *testing.T) {
	m, err := repro.GenerateScrambledClusters(1024, 1024, 64, 4423)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := repro.NewRandomDense(m.Cols, 16, 1)
	y := repro.NewRandomDense(m.Rows, 16, 2)
	out := m.Clone()
	var poolCalls atomic.Int64
	defer faultinject.Set("dense.pool", func() error { poolCalls.Add(1); return nil })()
	for name, p := range rowMapPipelines(t, m) {
		call := func() {
			if err := p.SDDMMIntoCtx(ctx, out, x, y); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			call()
		}
		poolCalls.Store(0)
		limit, attempts := 0.0, 3
		if raceDetectorEnabled {
			limit, attempts = 2, 10 // the detector drops sync.Pool puts at random
		}
		allocs := math.Inf(1)
		for a := 0; a < attempts && allocs > limit; a++ {
			allocs = testing.AllocsPerRun(20, call)
		}
		if allocs > limit {
			t.Errorf("%s: SDDMMIntoCtx allocates %v objects per call, want <= %v", name, allocs, limit)
		}
		if n := poolCalls.Load(); n != 0 {
			t.Errorf("%s: SDDMMIntoCtx made %d dense-pool calls, want 0", name, n)
		}
	}
}

// wrongColumnOut returns a clone of m with one nonzero moved to another
// column of its row: the same shape, nonzero count and row lengths, so
// only a full structure comparison tells it from m.
func wrongColumnOut(t *testing.T, m *repro.Matrix) *repro.Matrix {
	t.Helper()
	out := m.Clone()
	for r := 0; r < out.Rows; r++ {
		cols := out.ColIdx[out.RowPtr[r]:out.RowPtr[r+1]]
		if n := len(cols); n > 0 && int(cols[n-1]) < out.Cols-1 {
			cols[n-1] = int32(out.Cols - 1)
			return out
		}
	}
	t.Fatal("no row can take a moved column")
	return nil
}

// Every SDDMM entry point checks its output's structure once, where the
// output enters, and the layers below it no longer compare it: an
// output that differs from the matrix only in one column must still be
// rejected on every path — plain pipelines with and without a row map,
// online and sharded pipelines below and above the reorder gate, clean
// and mutated live pipelines, the Server, and the bare kernel.
func TestSDDMMRejectsWrongStructureOnEveryPath(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	m, err := repro.GenerateScrambledClusters(1024, 1024, 64, 4439)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x, y := repro.NewRandomDense(m.Cols, 8, 1), repro.NewRandomDense(m.Rows, 8, 2)
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	paths := map[string]func(out *repro.Matrix) error{
		"kernel": func(out *repro.Matrix) error { return kernels.SDDMMRowWiseIntoCtx(ctx, out, m, x, y) },
	}
	for name, p := range rowMapPipelines(t, m) {
		paths["pipeline/"+name] = func(out *repro.Matrix) error { return p.SDDMMIntoCtx(ctx, out, x, y) }
	}
	o, err := repro.NewOnlinePipelineCtx(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 8)
	paths["online"] = func(out *repro.Matrix) error { return o.SDDMMIntoCtx(ctx, out, x, y) }
	sp, err := repro.NewShardedPipelineCtx(ctx, m, cfg, m.NNZ()/3)
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, sp, 8)
	paths["sharded"] = func(out *repro.Matrix) error { return sp.SDDMMIntoCtx(ctx, out, x, y) }
	s, err := repro.NewServer(ctx, m, cfg, repro.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	paths["server"] = func(out *repro.Matrix) error { return s.SDDMMInto(ctx, out, x, y) }
	l, err := repro.NewLivePipelineCtx(ctx, m, cfg, repro.LiveConfig{RebuildDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, l.Online(), 8)
	paths["live"] = func(out *repro.Matrix) error { return l.SDDMMIntoCtx(ctx, out, x, y) }

	run := func(name string, call func(*repro.Matrix) error, m *repro.Matrix) {
		t.Helper()
		// Twice: online pipelines run their trial on the first call.
		for i := 0; i < 2; i++ {
			if err := call(m.Clone()); err != nil {
				t.Fatalf("%s: the matrix's own structure: %v", name, err)
			}
			if err := call(wrongColumnOut(t, m)); err == nil {
				t.Fatalf("%s: accepted an output with a moved column", name)
			}
		}
	}
	for name, call := range paths {
		run(name, call, m)
	}
	if err := l.Mutate(ctx, repro.Mutation{ReplaceRows: []repro.RowUpdate{{Row: 3, Def: repro.RowDef{
		Cols: []int32{4, 40, 400}, Vals: []float32{1, 2, 3}}}}}); err != nil {
		t.Fatal(err)
	}
	run("live/mutated", paths["live"], l.Matrix())
}

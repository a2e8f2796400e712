package repro_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/faultinject"
	"repro/internal/kernels"
)

// rowMapPipelines builds a reordered pipeline (both rounds forced, so
// its RowPerm is not the identity) and a no-reordering pipeline for m
// with kernel k.
func rowMapPipelines(t *testing.T, m *repro.Matrix, k repro.Kernel) map[string]*repro.Pipeline {
	t.Helper()
	cfg := repro.DefaultConfig()
	cfg.Kernel = k
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
		t.Fatalf("%v: forced reordering left the identity permutation", k)
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
	var err error
	switch p.Kernel() {
	case repro.KernelRowWise:
		err = kernels.SpMMRowWiseIntoCtx(ctx, yre, plan.Reordered, x)
	case repro.KernelMerge:
		err = kernels.SpMMMergeIntoCtx(ctx, yre, plan.Reordered, x)
	case repro.KernelELLHybrid:
		var h *ellpack.Hybrid
		if h, err = ellpack.FromCSRHybrid(plan.Reordered, 0); err == nil {
			err = kernels.SpMMHybridIntoCtx(ctx, yre, h, x)
		}
	default:
		err = kernels.SpMMASpTIntoCtx(ctx, yre, plan.Tiled, x)
	}
	if err != nil {
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
// a reordered plan and on an NR plan, for every kernel. Against the
// row-wise kernel on the unpermuted matrix it is bit-identical where
// the kernel sums each row in CSR order (row-wise, HYB), and within the
// reassociation tolerance where it does not (ASpT's tile-then-rest,
// merge's carries).
func TestPipelineSpMMWritesCallerRows(t *testing.T) {
	m, err := repro.GenerateScrambledClusters(1024, 1024, 64, 4411)
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 17, 3)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []repro.Kernel{repro.KernelRowWise, repro.KernelELLHybrid, repro.KernelMerge, repro.KernelASpT} {
		for name, p := range rowMapPipelines(t, m, k) {
			y := repro.NewRandomDense(m.Rows, x.Cols, 5) // noise: every element must be overwritten
			if err := p.SpMMIntoCtx(context.Background(), y, x); err != nil {
				t.Fatal(err)
			}
			if i := sameBits(y, twoPassSpMM(t, p, x)); i >= 0 {
				t.Fatalf("%v/%s: element %d differs from kernel-then-permute", k, name, i)
			}
			if k == repro.KernelRowWise || k == repro.KernelELLHybrid {
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
	for name, p := range rowMapPipelines(t, m, repro.KernelAuto) {
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
	for name, p := range rowMapPipelines(t, m, repro.KernelRowWise) {
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
	for name, p := range rowMapPipelines(t, m, repro.KernelAuto) {
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
	check("sharded", func(out *repro.Matrix) error { return sp.SDDMMIntoCtx(ctx, out, x, y) })

	// Live: rows 5 and 700 replaced and one row appended, with the
	// rebuild off so they are served from the overlay beside the base.
	l, err := repro.NewLivePipelineCtx(ctx, m, cfg, repro.LiveConfig{RebuildDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Online().WaitPreprocessed(ctx); err != nil {
		t.Fatal(err)
	}
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
	for name, p := range rowMapPipelines(t, m, repro.KernelAuto) {
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

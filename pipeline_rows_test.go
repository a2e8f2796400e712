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

package repro

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/lsh"
	"repro/internal/reorder"
)

// randomValueBatch rewrites n randomly chosen existing nonzeros of m.
func randomValueBatch(m *Matrix, rng *rand.Rand, n int) Mutation {
	var mu Mutation
	for len(mu.UpdateValues) < n {
		r := rng.Intn(m.Rows)
		if cols := m.RowCols(r); len(cols) > 0 {
			mu.UpdateValues = append(mu.UpdateValues, ValueUpdate{
				Row: r, Col: int(cols[rng.Intn(len(cols))]), Val: rng.Float32()*2 - 1,
			})
		}
	}
	return mu
}

// basePipelines lists every plan a live state's base serves from, with
// whether it is a no-reorder plan: each panel's no-reorder plan and,
// once built, its reordered plan.
func basePipelines(st *liveState) (pipes []*Pipeline, nr []bool) {
	pipes = st.base.plans()
	for _, p := range pipes {
		nr = append(nr, p.plan.Cfg.Disable)
	}
	return pipes, nr
}

// coldPipeline preprocesses m from scratch under cfg, bypassing the
// plan cache entirely.
func coldPipeline(t *testing.T, m *Matrix, cfg Config, nr bool) *Pipeline {
	t.Helper()
	build := reorder.Preprocess
	if nr {
		build = reorder.PreprocessNR
	}
	plan, err := build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newPipeline(m, plan)
}

// Oracle for the value re-skin: after every random value-only batch,
// each plan an online or sharded live tenant serves — on a matrix whose
// pick is row-wise and on one whose pick is merge — must hold exactly
// the values a cold, cache-free build of the same structure and config
// holds, and compute bit-identical SpMM and SDDMM results.
func TestReskinMatchesColdBuild(t *testing.T) {
	rowwise, err := GenerateScrambledClusters(1024, 1024, 64, 4401)
	if err != nil {
		t.Fatal(err)
	}
	merge, err := GenerateRMAT(10, 8, 4401)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for _, in := range []struct {
		m    *Matrix
		pick Kernel
	}{{rowwise, KernelRowWise}, {merge, KernelMerge}} {
		m := in.m
		x := NewRandomDense(m.Cols, 8, 1)
		for _, sharded := range []bool{false, true} {
			name := in.pick.String() + "/online"
			if sharded {
				name = in.pick.String() + "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				// Every width passes the gate, so the base holds both
				// kinds of plan.
				SetGateL2ForTest(t, 0)
				cfg := DefaultConfig()
				cfg.PreprocessBudget = time.Hour
				var l *LivePipeline
				var err error
				if sharded {
					l, err = NewLiveShardedPipelineCtx(ctx, m, cfg, m.NNZ()/3, LiveConfig{})
				} else {
					l, err = NewLivePipelineCtx(ctx, m, cfg, LiveConfig{})
				}
				if err != nil {
					t.Fatal(err)
				}
				if o := l.Online(); o != nil {
					BuildReorderedForTest(t, o, 8)
				} else {
					BuildReorderedForTest(t, l.Sharded(), 8)
				}
				for batch := 0; batch < 3; batch++ {
					if err := l.Mutate(ctx, randomValueBatch(l.Matrix(), rng, 1+rng.Intn(64))); err != nil {
						t.Fatal(err)
					}
					st := l.state.Load()
					pipes, nr := basePipelines(st)
					// A panel picks from its own rows, so a sharded base
					// need only serve the pick on one panel; R-MAT's hub
					// rows sit at the top of the row range.
					served := 0
					for _, p := range pipes {
						if p.Kernel() == in.pick {
							served++
						}
					}
					if served == 0 || (!sharded && served != len(pipes)) {
						t.Fatalf("%d of %d base plans serve %v", served, len(pipes), in.pick)
					}
					for i, p := range pipes {
						cold := coldPipeline(t, p.Matrix(), cfg, nr[i])
						assertSamePlanValues(t, p, cold)
						assertSameResults(t, ctx, p, cold, x)
					}
				}
				if st := l.Stats(); st.Reskins != 3 {
					t.Fatalf("reskins = %d, want 3", st.Reskins)
				}
			})
		}
	}
}

func assertSamePlanValues(t *testing.T, p, cold *Pipeline) {
	t.Helper()
	if p.Kernel() != cold.Kernel() {
		t.Fatalf("kernel %v, cold build %v", p.Kernel(), cold.Kernel())
	}
	a, b := p.plan, cold.plan
	if !slices.Equal(a.Reordered.Val, b.Reordered.Val) {
		t.Fatal("Reordered.Val differs from a cold build")
	}
	if !slices.Equal(a.Tiled.TileVal, b.Tiled.TileVal) {
		t.Fatal("TileVal differs from a cold build")
	}
	if !slices.Equal(a.Tiled.Rest.Val, b.Tiled.Rest.Val) {
		t.Fatal("Rest.Val differs from a cold build")
	}
	if !slices.Equal(p.dst, cold.dst) || (p.dst == nil) != (cold.dst == nil) {
		t.Fatalf("row map %v, cold build %v", p.dst != nil, cold.dst != nil)
	}
}

func assertSameResults(t *testing.T, ctx context.Context, p, cold *Pipeline, x *Dense) {
	t.Helper()
	m := p.Matrix()
	y1, y2 := NewDense(m.Rows, x.Cols), NewDense(m.Rows, x.Cols)
	if err := p.SpMMIntoCtx(ctx, y1, x); err != nil {
		t.Fatal(err)
	}
	if err := cold.SpMMIntoCtx(ctx, y2, x); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(y1.Data, y2.Data) {
		t.Fatal("SpMM of the re-skinned plan is not bit-identical to a cold build's")
	}
	yd := NewRandomDense(m.Rows, x.Cols, 2)
	o1, o2 := m.Clone(), m.Clone()
	if err := p.SDDMMIntoCtx(ctx, o1, x, yd); err != nil {
		t.Fatal(err)
	}
	if err := cold.SDDMMIntoCtx(ctx, o2, x, yd); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(o1.Val, o2.Val) {
		t.Fatal("SDDMM of the re-skinned plan is not bit-identical to a cold build's")
	}
}

// The kernels' row map is decided from RowPerm where a Pipeline is
// built: nil for the NR plan's identity, the plan's RowPerm for a
// reordered plan, and the same decision after a value re-skin.
func TestPipelineRowMapDecision(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4403)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Force = true
	rr, nr := coldPipeline(t, m, cfg, false), coldPipeline(t, m, cfg, true)
	if nr.dst != nil {
		t.Fatal("NR pipeline has a row map; its RowPerm is the identity")
	}
	if rr.dst == nil || &rr.dst[0] != &rr.plan.RowPerm[0] {
		t.Fatal("reordered pipeline's row map is not its plan's RowPerm")
	}
	m2 := m.Clone()
	for i := range m2.Val {
		m2.Val[i] *= 2
	}
	for _, p := range []*Pipeline{rr, nr} {
		np, err := p.withValues(m2)
		if err != nil {
			t.Fatal(err)
		}
		if (np.dst == nil) != (p.dst == nil) || !slices.Equal(np.dst, p.dst) {
			t.Fatal("re-skinned pipeline changed the row map decision")
		}
	}
}

// A value-only Mutate is one walk over the plans already served: it
// touches neither plan-cache tier nor LSH, and the new state shares the
// matrix's RowPtr/ColIdx and every plan structure array with the old.
func TestValueMutateSharesStructure(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4402)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	for _, sharded := range []bool{false, true} {
		var l *LivePipeline
		if sharded {
			l, err = NewLiveShardedPipelineCtx(ctx, m, cfg, m.NNZ()/3, LiveConfig{})
		} else {
			l, err = NewLivePipelineCtx(ctx, m, cfg, LiveConfig{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if o := l.Online(); o != nil {
			if err := o.WaitPreprocessed(ctx); err != nil {
				t.Fatal(err)
			}
		}
		st0 := l.state.Load()
		cache0, sig0 := PlanCacheStats(), lsh.SignatureOps()
		if err := l.Mutate(ctx, randomValueBatch(m, rand.New(rand.NewSource(3)), 256)); err != nil {
			t.Fatal(err)
		}
		st1 := l.state.Load()
		if c := PlanCacheStats(); c.Hits != cache0.Hits || c.Misses != cache0.Misses ||
			c.DiskHits != cache0.DiskHits || c.DiskMisses != cache0.DiskMisses {
			t.Fatalf("sharded=%v: plan cache touched: %+v -> %+v", sharded, cache0, c)
		}
		if got := lsh.SignatureOps(); got != sig0 {
			t.Fatalf("sharded=%v: value re-skin computed %d signature matrices", sharded, got-sig0)
		}
		if &st1.cur.RowPtr[0] != &st0.cur.RowPtr[0] || &st1.cur.ColIdx[0] != &st0.cur.ColIdx[0] {
			t.Fatalf("sharded=%v: new matrix does not share RowPtr/ColIdx", sharded)
		}
		if &st1.cur.Val[0] == &st0.cur.Val[0] {
			t.Fatalf("sharded=%v: new matrix shares the old values", sharded)
		}
		old, _ := basePipelines(st0)
		pipes, _ := basePipelines(st1)
		for i, p := range pipes {
			a, b := p.plan, old[i].plan
			if &a.RowPerm[0] != &b.RowPerm[0] || &a.InvRowPerm[0] != &b.InvRowPerm[0] ||
				&a.Reordered.RowPtr[0] != &b.Reordered.RowPtr[0] ||
				&a.Reordered.ColIdx[0] != &b.Reordered.ColIdx[0] ||
				&a.Tiled.TileRowPtr[0] != &b.Tiled.TileRowPtr[0] ||
				&a.Tiled.Rest.RowPtr[0] != &b.Tiled.Rest.RowPtr[0] ||
				&a.RestOrder[0] != &b.RestOrder[0] {
				t.Fatalf("sharded=%v plan %d: structure arrays not shared", sharded, i)
			}
			if a.Stages.Permute <= 0 || a.Stages.Total() != a.Stages.Permute {
				t.Fatalf("sharded=%v plan %d: stages %v, want only Permute", sharded, i, a.Stages)
			}
			if a.Cfg != b.Cfg {
				t.Fatalf("sharded=%v plan %d: config changed across the re-skin", sharded, i)
			}
		}
	}
}

// The re-skin half of the Disable-config defect: a value-only Mutate on
// a tenant whose trial picked the reordered plan must keep serving a
// reordered plan — same kernel, same plan fingerprint — even though the
// no-reorder plan was built on a plan-cache miss (whose Cfg carries
// Disable).
func TestReskinKeepsReorderedWinner(t *testing.T) {
	SetGateL2ForTest(t, 0)
	m, err := GenerateScrambledClusters(2048, 2048, 128, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	SetPlanCacheCapacity(DefaultPlanCacheCapacity) // cold: both builds miss
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	l, err := NewLivePipelineCtx(ctx, m, cfg, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	o := l.Online()
	BuildReorderedForTest(t, o, 8)
	rr := o.rr.Load()
	if !rr.plan.Round1Applied {
		t.Fatal("clustered matrix was not reordered; the test needs a reordered plan")
	}
	if !o.nr.plan.Cfg.Disable {
		t.Fatal("no-reorder plan did not come from a cache miss")
	}
	// Force the trial's verdict: timing decides it, so a test cannot
	// wait for the reordered plan to win.
	o.mu.Lock()
	o.decide(rr, time.Millisecond, 2*time.Millisecond, 16)
	o.mu.Unlock()
	fp, kernel := o.PlanFingerprint(), o.Kernel()

	if err := l.Mutate(ctx, randomValueBatch(m, rand.New(rand.NewSource(5)), 64)); err != nil {
		t.Fatal(err)
	}
	n := l.Online()
	if n == o {
		t.Fatal("value mutation did not re-skin the base")
	}
	if done, won := n.Decided(); !done || !won {
		t.Fatalf("re-skinned pipeline decided=%v reorderingWon=%v, want the reordered winner kept", done, won)
	}
	if !n.Pipeline().plan.Round1Applied {
		t.Fatal("re-skinned winner lost its reordering")
	}
	if n.Kernel() != kernel || n.PlanFingerprint() != fp {
		t.Fatalf("served plan changed: kernel %v -> %v, fingerprint %s -> %s", kernel, n.Kernel(), fp, n.PlanFingerprint())
	}
}

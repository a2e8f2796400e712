package repro

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinject"
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
// whether it is an online base's no-reorder plan.
func basePipelines(st *liveState) (pipes []*Pipeline, nr []bool) {
	if st.online != nil {
		return []*Pipeline{st.online.nr, st.online.rr.Load()}, []bool{true, false}
	}
	for i := range st.sharded.panels {
		pipes = append(pipes, st.sharded.panels[i].pipe)
		nr = append(nr, false)
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
	p, err := newPipeline(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Oracle for the value re-skin: after every random value-only batch,
// each plan an online or sharded live tenant serves — for every kernel,
// HYB included — must hold exactly the values a cold, cache-free build
// of the same structure and config holds, and compute bit-identical
// SpMM and SDDMM results.
func TestReskinMatchesColdBuild(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4401)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	x := NewRandomDense(m.Cols, 8, 1)
	for _, k := range []Kernel{KernelRowWise, KernelMerge, KernelELLHybrid, KernelASpT} {
		for _, sharded := range []bool{false, true} {
			name := k.String() + "/online"
			if sharded {
				name = k.String() + "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Kernel = k
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
					if err := o.WaitPreprocessed(ctx); err != nil {
						t.Fatal(err)
					}
				}
				for batch := 0; batch < 3; batch++ {
					if err := l.Mutate(ctx, randomValueBatch(l.Matrix(), rng, 1+rng.Intn(64))); err != nil {
						t.Fatal(err)
					}
					st := l.state.Load()
					pipes, nr := basePipelines(st)
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
	if (p.hyb == nil) != (cold.hyb == nil) {
		t.Fatalf("hybrid presence %v, cold build %v", p.hyb != nil, cold.hyb != nil)
	}
	if p.hyb != nil {
		if !slices.Equal(p.hyb.ELL.Vals, cold.hyb.ELL.Vals) {
			t.Fatal("ELL slab values differ from a cold build")
		}
		if !slices.Equal(p.hyb.Spill, cold.hyb.Spill) {
			t.Fatal("spill values differ from a cold build")
		}
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
	if err := o.WaitPreprocessed(ctx); err != nil {
		t.Fatal(err)
	}
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

// The corrupt.plan site must flip a slab value the HYB kernel reads. The
// slab is slot-major, so row r's first slot is index r; with row 0
// empty and row Width empty too, indexing row-major (r*Width) lands on
// padding and the flip would be invisible.
func TestCorruptPlanFlipsHybridSlab(t *testing.T) {
	// Row lengths 0,2,0,2,2,2,2,2: the 0.75-quantile slab width is 2.
	sets := [][]int32{{}, {1, 5}, {}, {0, 2}, {3, 4}, {6, 7}, {1, 2}, {4, 5}}
	m := &Matrix{Rows: len(sets), Cols: 8, RowPtr: make([]int32, len(sets)+1)}
	for i, cols := range sets {
		m.ColIdx = append(m.ColIdx, cols...)
		for range cols {
			m.Val = append(m.Val, float32(len(m.Val)+1))
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	defer SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	SetPlanCacheCapacity(0) // the flips persist in the plan; keep them out of the cache
	cfg := DefaultConfig()
	cfg.Kernel = KernelELLHybrid
	p, err := NewPipelineNR(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.hyb == nil || p.hyb.ELL.Width != 2 || len(p.hyb.Spill) != 0 {
		t.Fatalf("want a spill-free width-2 HYB plan, got %+v", p.hyb)
	}
	x := NewRandomDense(m.Cols, 4, 1)
	want, err := SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.CorruptAt("integrity.corrupt.plan")
	y := NewDense(m.Rows, 4)
	err = p.SpMMIntoCtx(context.Background(), y, x)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(y.Data, want.Data) {
		t.Fatal("armed corrupt.plan site left the HYB output unchanged")
	}
}

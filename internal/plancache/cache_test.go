package plancache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/lsh"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func clusteredMatrix(t testing.TB, rows, cols int, seed int64) *sparse.CSR {
	t.Helper()
	m, err := synth.Clustered(synth.ClusterParams{
		Rows: rows, Cols: cols, Clusters: 8,
		PrototypeNNZ: 24, Keep: 0.8, Noise: 2, Seed: seed, Scrambled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// withValues clones m's structure with fresh deterministic values.
func withValues(m *sparse.CSR, scale float32) *sparse.CSR {
	vals := make([]float32, m.NNZ())
	for i := range vals {
		vals[i] = scale * float32(i%17+1)
	}
	return &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: vals}
}

func TestHitIdenticalValuesSharesPlanArrays(t *testing.T) {
	c := New(4)
	m := clusteredMatrix(t, 1024, 512, 1)
	cfg := reorder.DefaultConfig()
	cold, err := c.Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := c.Get(m, cfg)
	if !ok {
		t.Fatal("expected a structural hit on the same matrix")
	}
	if &hit.Reordered.Val[0] != &cold.Reordered.Val[0] {
		t.Error("identical values: hit should share the cached Reordered.Val")
	}
	if hit.Preprocess <= 0 {
		t.Errorf("hit Preprocess = %v, want > 0", hit.Preprocess)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestHitDifferentValuesSkipsSignatures is the acceptance test of the
// issue: a structural hit with different nonzero values must perform
// zero signature computations (no LSH at all), yet return a plan whose
// value arrays equal what a from-scratch Preprocess would produce.
func TestHitDifferentValuesSkipsSignatures(t *testing.T) {
	c := New(4)
	m1 := withValues(clusteredMatrix(t, 1024, 512, 2), 1)
	m2 := withValues(m1, -3) // same structure, different values
	cfg := reorder.DefaultConfig()
	if _, err := c.Preprocess(m1, cfg); err != nil {
		t.Fatal(err)
	}

	before := lsh.SignatureOps()
	hit, ok := c.Get(m2, cfg)
	after := lsh.SignatureOps()
	if !ok {
		t.Fatal("expected a structural hit for same structure, new values")
	}
	if after != before {
		t.Errorf("cache hit computed %d signature batches, want 0", after-before)
	}

	want, err := reorder.Preprocess(m2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(hit.RowPerm, want.RowPerm) || !eq(hit.RestOrder, want.RestOrder) {
		t.Fatal("re-skinned plan's permutations differ from a fresh preprocess")
	}
	if !eq(hit.Reordered.Val, want.Reordered.Val) {
		t.Error("re-skinned Reordered.Val differs from fresh preprocess")
	}
	if !eq(hit.Tiled.TileVal, want.Tiled.TileVal) {
		t.Error("re-skinned TileVal differs from fresh preprocess")
	}
	if !eq(hit.Tiled.Rest.Val, want.Tiled.Rest.Val) {
		t.Error("re-skinned Rest.Val differs from fresh preprocess")
	}
	// Structure arrays must be shared, not copied.
	if &hit.Reordered.ColIdx[0] != &want.Reordered.ColIdx[0] {
		// want was computed fresh; compare against the cached entry via a
		// second identical-value get instead.
		same, _ := c.Get(m2, cfg)
		if &hit.Reordered.ColIdx[0] != &same.Reordered.ColIdx[0] {
			t.Error("re-skin should share structure arrays with the cached plan")
		}
	}
}

func TestMissOnStructureOrConfigChange(t *testing.T) {
	c := New(8)
	m := clusteredMatrix(t, 1024, 512, 3)
	cfg := reorder.DefaultConfig()
	if _, err := c.Preprocess(m, cfg); err != nil {
		t.Fatal(err)
	}

	// Different shape (extra empty row).
	taller := &sparse.CSR{Rows: m.Rows + 1, Cols: m.Cols,
		RowPtr: append(append([]int32{}, m.RowPtr...), m.RowPtr[m.Rows]),
		ColIdx: m.ColIdx, Val: m.Val}
	if _, ok := c.Get(taller, cfg); ok {
		t.Error("hit despite different row count")
	}

	// Different RowPtr (move one nonzero between rows), same ColIdx.
	rp := append([]int32{}, m.RowPtr...)
	rp[1]++ // row 0 steals row 1's first nonzero
	if _, ok := c.Get(&sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: rp, ColIdx: m.ColIdx, Val: m.Val}, cfg); ok {
		t.Error("hit despite different RowPtr")
	}

	// Different ColIdx.
	ci := append([]int32{}, m.ColIdx...)
	ci[0] ^= 1
	if _, ok := c.Get(&sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: ci, Val: m.Val}, cfg); ok {
		t.Error("hit despite different ColIdx")
	}

	// Different semantic config.
	cfg2 := cfg
	cfg2.ThresholdSize = cfg.ThresholdSize + 1
	if _, ok := c.Get(m, cfg2); ok {
		t.Error("hit despite different config")
	}

	// Disable names the no-reordering plan: a different key.
	nrCfg := cfg
	nrCfg.Disable = true
	if _, ok := c.Get(m, nrCfg); ok {
		t.Error("full-workflow plan served for a Disable config")
	}

	// Worker knobs are execution hints, not plan semantics: still a hit.
	cfg3 := cfg
	cfg3.Workers = 7
	cfg3.LSH.Workers = 3
	cfg3.ASpT.Workers = 2
	if _, ok := c.Get(m, cfg3); !ok {
		t.Error("miss on a worker-count-only config change")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	cfg := reorder.DefaultConfig()
	ms := []*sparse.CSR{
		clusteredMatrix(t, 512, 256, 10),
		clusteredMatrix(t, 512, 256, 11),
		clusteredMatrix(t, 512, 256, 12),
	}
	for _, m := range ms[:2] {
		if _, err := c.Preprocess(m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Touch ms[0] so ms[1] is the LRU victim.
	if _, ok := c.Get(ms[0], cfg); !ok {
		t.Fatal("expected hit on ms[0]")
	}
	if _, err := c.Preprocess(ms[2], cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(ms[0], cfg); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(ms[1], cfg); ok {
		t.Error("LRU entry survived past capacity")
	}
	if _, ok := c.Get(ms[2], cfg); !ok {
		t.Error("newest entry missing")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *Cache = New(0)
	if c != nil {
		t.Fatal("New(0) should return the nil always-miss cache")
	}
	m := clusteredMatrix(t, 256, 128, 20)
	cfg := reorder.DefaultConfig()
	if _, ok := c.Get(m, cfg); ok {
		t.Error("nil cache reported a hit")
	}
	c.Put(m, cfg, nil)
	c.Purge()
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
	p, err := c.Preprocess(m, cfg)
	if err != nil || p == nil {
		t.Fatalf("nil cache Preprocess = (%v, %v), want a computed plan", p, err)
	}
	if c.Len() != 0 {
		t.Error("nil cache stored an entry")
	}
}

func TestPurge(t *testing.T) {
	c := New(4)
	m := clusteredMatrix(t, 512, 256, 30)
	cfg := reorder.DefaultConfig()
	if _, err := c.Preprocess(m, cfg); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len = %d after Purge, want 0", c.Len())
	}
	if _, ok := c.Get(m, cfg); ok {
		t.Error("hit after Purge")
	}
}

// TestConcurrentGetPut exercises the cache from many goroutines under
// -race: concurrent cold misses, hits, re-skins, and evictions on a
// small-capacity cache.
func TestConcurrentGetPut(t *testing.T) {
	c := New(3)
	cfg := reorder.DefaultConfig()
	bases := []*sparse.CSR{
		clusteredMatrix(t, 512, 256, 40),
		clusteredMatrix(t, 512, 256, 41),
		clusteredMatrix(t, 512, 256, 42),
		clusteredMatrix(t, 512, 256, 43),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				m := withValues(bases[(g+i)%len(bases)], float32(g+1))
				p, err := c.Preprocess(m, cfg)
				if err != nil {
					errs <- err
					return
				}
				if p.Reordered.NNZ() != m.NNZ() {
					errs <- fmt.Errorf("goroutine %d: plan nnz %d != matrix nnz %d",
						g, p.Reordered.NNZ(), m.NNZ())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.Len(); n > 3 {
		t.Errorf("Len = %d, exceeds capacity 3", n)
	}
}

func eq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelChoiceCached checks the autotuned kernel is part of the
// cached plan: a memory hit and a same-structure value re-skin replay
// the choice, for a matrix whose pick is row-wise and one whose pick is
// merge.
func TestKernelChoiceCached(t *testing.T) {
	skewed, err := synth.RMAT(9, 16, 0.57, 0.19, 0.19, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reorder.DefaultConfig()
	for _, tc := range []struct {
		m    *sparse.CSR
		want reorder.Kernel
	}{{clusteredMatrix(t, 1024, 512, 9), reorder.KernelRowWise}, {skewed, reorder.KernelMerge}} {
		c := New(8)
		plan, err := c.Preprocess(tc.m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kernel != tc.want {
			t.Fatalf("preprocessed kernel = %v, want %v", plan.Kernel, tc.want)
		}
		hit, ok := c.Get(tc.m, cfg)
		if !ok {
			t.Fatal("miss on identical matrix+config")
		}
		if hit.Kernel != tc.want {
			t.Fatalf("cached kernel = %v, want %v", hit.Kernel, tc.want)
		}
		// A hit on the same structure with different values must keep the
		// kernel too (the reskin path).
		hit, ok = c.Get(withValues(tc.m, 2), cfg)
		if !ok {
			t.Fatal("miss on same-structure matrix")
		}
		if hit.Kernel != tc.want {
			t.Fatalf("reskinned kernel = %v, want %v", hit.Kernel, tc.want)
		}
	}
}

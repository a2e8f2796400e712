package repro_test

import (
	"testing"

	"repro"
)

// TestPipelineConstructionUsesPlanCache pins the public wiring: building
// pipelines for the same structure goes through the process-wide plan
// cache, and an online pipeline on a seen structure hits for both of
// its builds (full + NR variants).
func TestPipelineConstructionUsesPlanCache(t *testing.T) {
	repro.SetGateL2ForTest(t, 0)
	// Isolate from whatever other tests did to the process-wide cache,
	// and restore the default afterwards.
	repro.SetPlanCacheCapacity(8)
	defer repro.SetPlanCacheCapacity(repro.DefaultPlanCacheCapacity)

	m := scrambled(t)
	cfg := repro.DefaultConfig()

	p1, err := repro.NewPipeline(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := repro.PlanCacheStats()
	if st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("cold build stats = %+v, want only misses", st)
	}

	p2, err := repro.NewPipeline(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st = repro.PlanCacheStats()
	if st.Hits != 1 {
		t.Fatalf("warm build stats = %+v, want 1 hit", st)
	}
	// Cached plans share the heavy arrays; the pipelines must still be
	// independently usable.
	if &p1.Plan().Reordered.Val[0] != &p2.Plan().Reordered.Val[0] {
		t.Error("second pipeline did not reuse the cached plan's arrays")
	}
	x := repro.NewRandomDense(m.Cols, 16, 1)
	y1, err := p1.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := p2.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("cached-plan pipeline output differs at %d", i)
		}
	}

	// An online pipeline on the same structure hits for both variants.
	before := repro.PlanCacheStats()
	o, err := repro.NewOnlinePipeline(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	cold := repro.PlanCacheStats()
	if cold.Misses != before.Misses+1 { // NR variant is new; full variant hits
		t.Fatalf("first online build: misses %d -> %d, want +1 (NR only)",
			before.Misses, cold.Misses)
	}
	if o, err = repro.NewOnlinePipeline(m, cfg); err != nil {
		t.Fatal(err)
	}
	repro.BuildReorderedForTest(t, o, 16)
	warm := repro.PlanCacheStats()
	if warm.Misses != cold.Misses || warm.Hits != cold.Hits+2 {
		t.Fatalf("replayed online build stats = %+v (was %+v), want 2 more hits, no more misses",
			warm, cold)
	}
}

// TestPreprocessCachedMatchesPreprocess pins that the cached entry
// point returns a plan equivalent to the uncached one.
func TestPreprocessCachedMatchesPreprocess(t *testing.T) {
	repro.SetPlanCacheCapacity(4)
	defer repro.SetPlanCacheCapacity(repro.DefaultPlanCacheCapacity)

	m := scrambled(t)
	cfg := repro.DefaultConfig()
	want, err := repro.Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // miss, then hit
		got, err := repro.PreprocessCached(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.RowPerm) != len(want.RowPerm) {
			t.Fatal("RowPerm length mismatch")
		}
		for j := range want.RowPerm {
			if got.RowPerm[j] != want.RowPerm[j] {
				t.Fatalf("iteration %d: RowPerm[%d] differs", i, j)
			}
		}
		if got.DenseRatioAfter != want.DenseRatioAfter {
			t.Fatalf("iteration %d: DenseRatioAfter %v != %v", i, got.DenseRatioAfter, want.DenseRatioAfter)
		}
	}
	if st := repro.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 hit", st)
	}
}

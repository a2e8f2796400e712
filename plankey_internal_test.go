package repro

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/plancache"
)

// heldPlanKeys snapshots the process plan cache's memory tier into a
// fresh directory and returns the fingerprints of the plans it holds.
func heldPlanKeys(t *testing.T) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	pc := planCache.Load()
	if err := pc.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, e := range entries {
		if fp, ok := strings.CutSuffix(e.Name(), ".plan"); ok {
			keys[fp] = true
		}
	}
	return keys
}

// coldOnlineServer serves m from a fresh plan cache, with the reorder
// gate passing every width, so both of the tenant's plans are built on
// cache misses, and starts the reordered build with one call and waits
// for it.
func coldOnlineServer(t *testing.T, m *Matrix, cfg Config, scfg ServerConfig) *Server {
	t.Helper()
	SetGateL2ForTest(t, 0)
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
	ctx := context.Background()
	s, err := NewServer(ctx, m, cfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	BuildReorderedForTest(t, s.Live().Online(), 1)
	if st := PlanCacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("plan cache stats %+v: want both plans built on misses", st)
	}
	return s
}

func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// The trial_winner event and /debug/explain name the served plan by
// its plan-cache fingerprint; both must be keys the cache holds, also
// for a tenant whose no-reorder plan was built on a miss.
func TestTrialAndExplainFingerprintsAreHeldKeys(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4417)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s := coldOnlineServer(t, m, cfg, ServerConfig{})
	defer closeServer(t, s)
	x := NewRandomDense(m.Cols, 16, 1)
	if err := s.SpMMInto(context.Background(), NewDense(m.Rows, 16), x); err != nil {
		t.Fatal(err)
	}
	if done, _ := s.Live().Online().Decided(); !done {
		t.Fatal("first call did not decide the trial")
	}
	var trialFP string
	for _, e := range s.Events().Snapshot() {
		if e.Type == obs.EventTrialWinner {
			trialFP = e.PlanFP
		}
	}
	ex, err := s.Explain(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	held := heldPlanKeys(t)
	if !held[trialFP] {
		t.Errorf("trial_winner PlanFP %q is not a key the cache holds (%v)", trialFP, held)
	}
	if !held[ex.PlanFingerprint] {
		t.Errorf("explain fingerprint %q is not a key the cache holds (%v)", ex.PlanFingerprint, held)
	}
}

// A quarantine evicts the tenant's plans from both cache tiers. On a
// tenant never rebuilt, whose no-reorder plan was built on a miss,
// neither plan's key may be left in memory or on disk. The healing
// rebuild is held at its start so nothing repopulates the cache before
// the check, then released; it still builds without reordering.
func TestQuarantineEvictsFirstBasePlans(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4419)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s := coldOnlineServer(t, m, cfg, ServerConfig{VerifyFraction: 1, VerifyRows: -1, MaxAttempts: 3})
	defer closeServer(t, s)
	dir := t.TempDir()
	if err := SetPlanCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := SnapshotPlanCache(); err != nil {
		t.Fatal(err)
	}
	o := s.Live().Online()
	keys := []string{plancache.Fingerprint(m, o.nr.plan.Cfg), plancache.Fingerprint(m, o.rr.Load().plan.Cfg)}
	for _, fp := range keys {
		if _, err := os.Stat(filepath.Join(dir, fp+".plan")); err != nil {
			t.Fatalf("plan %s not on disk before the quarantine: %v", fp, err)
		}
	}

	hold := make(chan struct{})
	unhold := faultinject.Set("live.rebuild.start", func() error { <-hold; return nil })
	release := sync.OnceFunc(func() { unhold(); close(hold) })
	defer release()
	restore := faultinject.CorruptAt("integrity.corrupt.plan")
	ctx := context.Background()
	x, y := NewRandomDense(m.Cols, 8, 1), NewDense(m.Rows, 8)
	for i := 0; ; i++ {
		if ts, _ := s.TenantStats(DefaultTenant); ts.Integrity.Quarantines > 0 {
			break
		}
		if i == 20 {
			restore()
			t.Fatal("corrupt plan never quarantined the tenant")
		}
		if err := s.SpMMInto(ctx, y, x); err != nil {
			t.Fatal(err)
		}
	}
	restore()

	for _, fp := range keys {
		if _, err := os.Stat(filepath.Join(dir, fp+".plan")); err == nil {
			t.Errorf("plan %s left on disk after the quarantine", fp)
		}
	}
	held := heldPlanKeys(t)
	for _, fp := range keys {
		if held[fp] {
			t.Errorf("plan %s left in memory after the quarantine", fp)
		}
	}

	// The healing rebuild is gated on the host's L2, where no width this
	// test serves reaches the gate for a 1024-column matrix.
	l2Hook.Store(nil)
	release()
	if err := s.Live().WaitRebuilt(ctx); err != nil {
		t.Fatal(err)
	}
	if o := s.Live().Online(); o.rr.Load() != nil || !o.nr.plan.Cfg.Disable || o.Pipeline() != o.nr {
		t.Fatal("the healing rebuild reordered; online rebuilds build one no-reorder plan")
	}
}

// Every plan an online pipeline holds carries its own plan-cache key in
// Plan().Cfg, however it was obtained: built on a miss, taken from the
// memory tier, or reloaded from a snapshot on disk. The no-reorder
// plan's key is its Config with Disable set, distinct from the
// reordered plan's, and both are keys the cache holds.
func TestPlanCfgIsHeldKeyOnEveryTier(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4421)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	SetGateL2ForTest(t, 0)
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
	dir := t.TempDir()
	for _, tier := range []plancache.Tier{plancache.TierMiss, plancache.TierMemory, plancache.TierDisk} {
		if tier == plancache.TierDisk {
			// Snapshot both plans, then start a fresh cache over the
			// snapshot directory: both reload from disk.
			if err := SetPlanCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			if n, err := SnapshotPlanCache(); n != 2 || err != nil {
				t.Fatalf("SnapshotPlanCache = (%d, %v), want (2, nil)", n, err)
			}
			SetPlanCacheCapacity(DefaultPlanCacheCapacity)
			if err := SetPlanCacheDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		before := PlanCacheStats()
		o, err := NewOnlinePipeline(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		BuildReorderedForTest(t, o, 1)
		st := PlanCacheStats()
		got := map[plancache.Tier]int64{
			plancache.TierMiss:   st.Misses - st.DiskHits - (before.Misses - before.DiskHits),
			plancache.TierMemory: st.Hits - before.Hits,
			plancache.TierDisk:   st.DiskHits - before.DiskHits,
		}
		if got[tier] != 2 || got[plancache.TierMiss]+got[plancache.TierMemory]+got[plancache.TierDisk] != 2 {
			t.Fatalf("%v: lookups by tier %v, want both plans from this tier", tier, got)
		}
		nr, rr := o.nr.Plan(), o.rr.Load().Plan()
		if !nr.Cfg.Disable || rr.Cfg.Disable {
			t.Errorf("%v: Disable is %v on the no-reorder plan's Cfg and %v on the reordered one's",
				tier, nr.Cfg.Disable, rr.Cfg.Disable)
		}
		held := heldPlanKeys(t)
		nrKey, rrKey := plancache.Fingerprint(m, nr.Cfg), plancache.Fingerprint(m, rr.Cfg)
		if nrKey == rrKey || !held[nrKey] || !held[rrKey] {
			t.Errorf("%v: plan keys nr %s, rr %s; held %v", tier, nrKey, rrKey, held)
		}
	}
}

// A structural fold builds one plan: a live rebuild costs exactly one
// plan-cache miss and publishes a base decided on its no-reorder plan
// before any call serves, with no reordered plan and no trial. The next
// value-only mutation re-skins that one plan.
func TestLiveFoldBuildsOnePlan(t *testing.T) {
	m, err := GenerateScrambledClusters(1024, 1024, 64, 4423)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
	ctx := context.Background()
	l, err := NewLivePipelineCtx(ctx, m, cfg, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Quiesce(ctx)
	if err := l.Online().WaitPreprocessed(ctx); err != nil {
		t.Fatal(err)
	}

	before := PlanCacheStats()
	row := RowDef{Cols: []int32{1, 7, 700}, Vals: []float32{1, 2, 3}}
	if err := l.Mutate(ctx, Mutation{ReplaceRows: []RowUpdate{{Row: 3, Def: row}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitRebuilt(ctx); err != nil {
		t.Fatal(err)
	}
	if ls := l.Stats(); ls.Swaps != 1 || ls.OverlayRows != 0 {
		t.Fatalf("live stats after the fold: %+v", ls)
	}
	if d := PlanCacheStats().Misses - before.Misses; d != 1 {
		t.Fatalf("the fold cost %d plan-cache misses, want 1", d)
	}
	o := l.Online()
	if o.rr.Load() != nil {
		t.Fatal("the rebuilt base holds a reordered plan")
	}
	if done, won := o.Decided(); !done || won || o.Pipeline() != o.nr {
		t.Fatalf("rebuilt base not decided on its no-reorder plan before serving (done %v, won %v)", done, won)
	}
	if rrT, nrT := o.TrialTimes(); rrT != 0 || nrT != 0 {
		t.Fatalf("rebuilt base ran a trial: %v, %v", rrT, nrT)
	}
	fp := o.PlanFingerprint()
	if fp != plancache.Fingerprint(l.Matrix(), o.nr.plan.Cfg) || !heldPlanKeys(t)[fp] {
		t.Fatalf("rebuilt base fingerprint %q is not its plan's held key", fp)
	}

	reskins := l.Stats().Reskins
	if err := l.Mutate(ctx, randomValueBatch(l.Matrix(), rand.New(rand.NewSource(1)), 16)); err != nil {
		t.Fatal(err)
	}
	n := l.Online()
	if l.Stats().Reskins != reskins+1 || n == o || n.nr == o.nr {
		t.Fatal("the value-only mutation did not re-skin the base")
	}
	if done, _ := n.Decided(); !done || n.rr.Load() != nil || n.Pipeline() != n.nr || n.PlanFingerprint() != fp {
		t.Fatal("the re-skinned base is not decided on its one re-skinned plan")
	}
}

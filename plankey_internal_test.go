package repro

import (
	"context"
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

// coldOnlineServer serves m from a fresh plan cache, so the tenant's
// no-reorder plan is built on a cache miss and carries Disable=true in
// its Cfg, and waits for the reordered build.
func coldOnlineServer(t *testing.T, m *Matrix, cfg Config, scfg ServerConfig) *Server {
	t.Helper()
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
	ctx := context.Background()
	s, err := NewServer(ctx, m, cfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	o := s.Live().Online()
	if err := o.WaitPreprocessed(ctx); err != nil {
		t.Fatal(err)
	}
	if !o.nr.plan.Cfg.Disable {
		t.Fatal("no-reorder plan did not come from a cache miss")
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
	keys := []string{plancache.Fingerprint(m, cfg, plancache.Full), plancache.Fingerprint(m, cfg, plancache.NR)}
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

	release()
	if err := s.Live().WaitRebuilt(ctx); err != nil {
		t.Fatal(err)
	}
	if o := s.Live().Online(); !o.cfg.Disable || o.rr.Load().plan.Round1Applied {
		t.Fatal("the healing rebuild reordered; online rebuilds build without reordering")
	}
}

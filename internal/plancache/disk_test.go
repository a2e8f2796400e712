package plancache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

func planFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".plan") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestSnapshotAndWarmStart is the restart story: cache A preprocesses,
// snapshots to disk, and a fresh cache B (a new process, conceptually)
// serves the same structure from the snapshot — disk hit, no LSH or
// clustering — with the plan repopulated into B's memory tier.
func TestSnapshotAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	m := clusteredMatrix(t, 1024, 512, 3)
	cfg := reorder.DefaultConfig()

	a := New(4)
	if err := a.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	cold, err := a.Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.Snapshot()
	if err != nil || n != 1 {
		t.Fatalf("Snapshot = (%d, %v), want (1, nil)", n, err)
	}
	if files := planFilesIn(t, dir); len(files) != 1 {
		t.Fatalf("snapshot dir holds %v, want one .plan file", files)
	}

	b := New(4)
	if err := b.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	warm, ok := b.Get(m, cfg)
	if !ok {
		t.Fatal("warm start: expected a disk hit")
	}
	for i := range cold.RowPerm {
		if warm.RowPerm[i] != cold.RowPerm[i] {
			t.Fatalf("warm plan permutation differs at %d", i)
		}
	}
	st := b.Stats()
	if st.DiskHits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want DiskHits 1 and the plan repopulated", st)
	}
	// Second Get is a pure memory hit — the disk tier is touched once.
	if _, ok := b.Get(m, cfg); !ok {
		t.Fatal("repopulated entry missed")
	}
	if st := b.Stats(); st.DiskHits != 1 || st.Hits != 1 {
		t.Errorf("after memory hit: stats = %+v", st)
	}
}

// TestCorruptSnapshotFallsBack truncates and bit-flips the snapshot
// file: both must be detected (never applied) and degrade to a plain
// recompute.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	m := clusteredMatrix(t, 1024, 512, 4)
	cfg := reorder.DefaultConfig()
	a := New(4)
	if err := a.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Preprocess(m, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	name := planFilesIn(t, dir)[0]
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		b := New(4)
		if err := b.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Get(m, cfg); ok {
			t.Fatal("corrupted snapshot served as a hit")
		}
		if st := b.Stats(); st.DiskMisses != 1 {
			t.Errorf("stats = %+v, want DiskMisses 1", st)
		}
		// The fallback path still works: recompute from scratch.
		if _, err := b.Preprocess(m, cfg); err != nil {
			t.Fatalf("recompute after corrupt snapshot: %v", err)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)/2] })
	})
	t.Run("bitflip", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
	})
}

// TestEvictRemovesDiskSnapshot is the quarantine controller's property:
// once a plan is evicted for failing shadow verification, every copy is
// gone — the memory entry, the snapshot file, AND the file must stay
// gone across a later Snapshot sweep (nothing resurrects a condemned
// plan from a stale memory copy). A second, healthy plan sharing the
// cache must be untouched throughout.
func TestEvictRemovesDiskSnapshot(t *testing.T) {
	dir := t.TempDir()
	bad := clusteredMatrix(t, 1024, 512, 7)
	good := clusteredMatrix(t, 1024, 512, 8)
	cfg := reorder.DefaultConfig()
	c := New(4)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*sparse.CSR{bad, good} {
		if _, err := c.Preprocess(m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.Snapshot(); n != 2 || err != nil {
		t.Fatalf("Snapshot = (%d, %v), want (2, nil)", n, err)
	}
	if files := planFilesIn(t, dir); len(files) != 2 {
		t.Fatalf("snapshot dir holds %v, want two .plan files", files)
	}

	if !c.Evict(bad, cfg) {
		t.Fatal("Evict removed nothing")
	}
	if files := planFilesIn(t, dir); len(files) != 1 {
		t.Fatalf("after evict, snapshot dir holds %v, want one .plan file", files)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("after evict: stats = %+v, want one surviving entry, one eviction", st)
	}
	// A condemned plan is a guaranteed recompute: no memory hit, no disk
	// resurrection.
	if _, tier := c.GetTier(bad, cfg); tier != TierMiss {
		t.Fatalf("evicted plan served from tier %v", tier)
	}

	// The next snapshot sweep writes only the survivor and must not
	// bring the evicted file back.
	if n, err := c.Snapshot(); n != 1 || err != nil {
		t.Fatalf("post-evict Snapshot = (%d, %v), want (1, nil)", n, err)
	}
	if files := planFilesIn(t, dir); len(files) != 1 {
		t.Fatalf("post-evict snapshot resurrected files: %v", files)
	}
	// The healthy plan still round-trips from disk in a fresh cache.
	b := New(4)
	if err := b.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(good, cfg); !ok {
		t.Error("healthy plan lost its snapshot")
	}
	if _, ok := b.Get(bad, cfg); ok {
		t.Error("evicted plan served from a fresh cache")
	}

	// Evicting again (nothing left anywhere) reports false.
	if c.Evict(bad, cfg) {
		t.Error("second Evict of the same plan reported a removal")
	}
}

// TestDiskTierFaultInjection exercises every plancache fault site:
// each one must degrade (skip cache, skip disk, skip snapshot) without
// affecting correctness.
func TestDiskTierFaultInjection(t *testing.T) {
	dir := t.TempDir()
	m := clusteredMatrix(t, 1024, 512, 5)
	cfg := reorder.DefaultConfig()
	c := New(4)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Preprocess(m, cfg); err != nil {
		t.Fatal(err)
	}

	t.Run("disk.save", func(t *testing.T) {
		defer faultinject.ErrorAt("plancache.disk.save")()
		n, err := c.Snapshot()
		if n != 0 || err == nil {
			t.Fatalf("Snapshot under fault = (%d, %v), want (0, injected error)", n, err)
		}
	})
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}

	t.Run("get", func(t *testing.T) {
		defer faultinject.ErrorAt("plancache.get")()
		if _, ok := c.Get(m, cfg); ok {
			t.Fatal("Get under injected lookup fault returned a hit")
		}
	})

	t.Run("disk.load", func(t *testing.T) {
		defer faultinject.ErrorAt("plancache.disk.load")()
		b := New(4)
		if err := b.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Get(m, cfg); ok {
			t.Fatal("disk load under fault returned a hit")
		}
		if st := b.Stats(); st.DiskMisses != 1 {
			t.Errorf("stats = %+v, want DiskMisses 1", st)
		}
	})

	t.Run("put", func(t *testing.T) {
		defer faultinject.ErrorAt("plancache.put")()
		b := New(4)
		if _, err := b.Preprocess(m, cfg); err != nil {
			t.Fatalf("Preprocess under put fault: %v", err)
		}
		if st := b.Stats(); st.Entries != 0 {
			t.Errorf("entry cached despite injected put fault: %+v", st)
		}
	})
}

// TestSnapshotBothVariants: an online pipeline caches the reordered
// plan and the no-reordering one (its Config with Disable set); both
// must round-trip through the disk tier under their distinct keys, each
// carrying its own key's Config.
func TestSnapshotBothVariants(t *testing.T) {
	dir := t.TempDir()
	m := clusteredMatrix(t, 1024, 512, 6)
	cfg := reorder.DefaultConfig()
	nrCfg := cfg
	nrCfg.Disable = true
	a := New(4)
	if err := a.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Preprocess(m, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Preprocess(m, nrCfg); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Snapshot(); n != 2 || err != nil {
		t.Fatalf("Snapshot = (%d, %v), want (2, nil)", n, err)
	}
	b := New(4)
	if err := b.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if p, ok := b.Get(m, cfg); !ok || p.Cfg.Disable {
		t.Error("reordered plan not served from disk under its Config")
	}
	if p, ok := b.Get(m, nrCfg); !ok || !p.Cfg.Disable || p.NeedsReordering() {
		t.Error("no-reordering plan not served from disk under its Config")
	}
	if st := b.Stats(); st.DiskHits != 2 {
		t.Errorf("stats = %+v, want DiskHits 2", st)
	}
}

// TestDiskTierReplaysStoredKernel writes snapshots under a plan's own
// key with a stored kernel the autotuner would not pick: a stored merge
// on a row-wise matrix replays merge, and a stored ellhybrid, aspt or
// legacy 0 — kernels no plan serves — re-resolves to ChooseKernel's
// pick on a disk hit.
func TestDiskTierReplaysStoredKernel(t *testing.T) {
	m := clusteredMatrix(t, 1024, 512, 7)
	cfg := reorder.DefaultConfig()
	plan, err := reorder.Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pick := reorder.ChooseKernel(plan.Features)
	if pick != reorder.KernelRowWise {
		t.Fatalf("autotuner picked %v, want rowwise", pick)
	}
	for _, tc := range []struct{ stored, want reorder.Kernel }{
		{reorder.KernelMerge, reorder.KernelMerge},
		{reorder.KernelELLHybrid, pick},
		{reorder.KernelASpT, pick},
		{reorder.KernelAuto, pick},
	} {
		dir := t.TempDir()
		stored := *plan
		stored.Kernel = tc.stored
		if err := reorder.WritePlanFile(filepath.Join(dir, planFileName(fingerprint(m, cfg))), &stored); err != nil {
			t.Fatal(err)
		}
		c := New(4)
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		got, tier := c.GetTier(m, cfg)
		if tier != TierDisk {
			t.Fatalf("stored %v: tier %v, want a disk hit", tc.stored, tier)
		}
		if got.Kernel != tc.want {
			t.Fatalf("stored %v: served kernel %v, want %v", tc.stored, got.Kernel, tc.want)
		}
	}
}

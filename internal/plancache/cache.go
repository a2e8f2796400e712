// Package plancache is a content-addressed cache of preprocessing
// plans. The paper's preprocessing (LSH signatures, clustering, tiling)
// depends only on a matrix's sparsity *structure* and the preprocessing
// configuration — never on the nonzero values. In a serving system the
// same structures recur constantly (the same graph re-queried with new
// feature values, the same interaction pattern re-scored with updated
// weights), so preprocessing a structure twice is pure waste.
//
// The cache is keyed by a 128-bit structural fingerprint hashed over
// shape, RowPtr, ColIdx and the semantic preprocessing configuration
// (worker-count knobs are normalised away: they change how fast a plan
// is computed, not which plan). On a hit with identical values the
// cached *reorder.Plan is returned as-is; on a hit with different
// values the plan is "re-skinned" by reorder.Plan.WithValues: the
// structural decisions and every structure array are shared, and only
// the three value arrays (reordered matrix, dense tiles, leftover CSR)
// are refilled from the new matrix in one O(nnz) row walk with no LSH,
// clustering, or tiling work. Entries are evicted least-recently-used,
// bounding memory.
package plancache

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// Tier names which cache tier satisfied a lookup (or that none did).
type Tier int

const (
	TierMiss   Tier = iota // neither tier had the plan
	TierMemory             // in-memory LRU hit
	TierDisk               // served from the snapshot directory
)

func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	}
	return "miss"
}

// key is a 128-bit content fingerprint. Two independently seeded
// 64-bit lanes make accidental collisions (which would silently serve a
// wrong plan) negligible at any realistic cache size.
type key [2]uint64

// digest accumulates 64-bit words into both lanes.
type digest key

func newDigest() digest { return digest{0x243f6a8885a308d3, 0x13198a2e03707344} }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (d *digest) word(w uint64) {
	d[0] = mix64(d[0] ^ w)
	d[1] = mix64(d[1] + w + 0x9e3779b97f4a7c15)
}

func (d *digest) int32s(s []int32) {
	d.word(uint64(len(s)))
	i := 0
	for ; i+1 < len(s); i += 2 {
		d.word(uint64(uint32(s[i])) | uint64(uint32(s[i+1]))<<32)
	}
	if i < len(s) {
		d.word(uint64(uint32(s[i])))
	}
}

func (d *digest) float32s(s []float32) {
	d.word(uint64(len(s)))
	i := 0
	for ; i+1 < len(s); i += 2 {
		d.word(uint64(math.Float32bits(s[i])) | uint64(math.Float32bits(s[i+1]))<<32)
	}
	if i < len(s) {
		d.word(uint64(math.Float32bits(s[i])))
	}
}

func (d *digest) bytes(s string) {
	d.word(uint64(len(s)))
	var w uint64
	n := 0
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * n)
		if n++; n == 8 {
			d.word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		d.word(w)
	}
}

// configSignature renders the semantic part of a preprocessing
// configuration. Worker-count knobs are zeroed first: they are
// execution hints, and the engine guarantees bit-identical plans for
// every worker count. Config is a flat value struct (no pointers, no
// maps), so %v is a stable, total rendering.
func configSignature(cfg reorder.Config) string {
	cfg.Workers = 0
	cfg.LSH.Workers = 0
	cfg.ASpT.Workers = 0
	// The preprocessing budget bounds how long a background build may
	// run, never what a successful build produces, so it is normalised
	// away too — otherwise two online pipelines differing only in
	// budget would never share plans.
	cfg.PreprocessBudget = 0
	// cfg.Epoch is deliberately NOT normalised: the structural epoch of
	// a live matrix is semantic. Two epochs can transiently share the
	// same structure arrays (e.g. a row replaced and later restored), and
	// a plan skinned for the old epoch must never satisfy a lookup for
	// the new one — staleness has to read as a miss.
	return fmt.Sprintf("%v", cfg)
}

// Variant names which preprocessing workflow produced a plan. The full
// Fig-5 workflow and the no-reordering (ASpT-NR) baseline yield
// different plans for the same structure and configuration — an online
// pipeline caches both — so the variant is part of the cache key.
type Variant uint64

const (
	// Full is the complete workflow: both reordering rounds, skip
	// heuristics, and tiling (reorder.Preprocess).
	Full Variant = 1
	// NR is the no-reordering ASpT baseline (reorder.PreprocessNR).
	NR Variant = 2
)

// fingerprint hashes everything that determines a plan: shape, the two
// structure arrays, the semantic configuration, and the workflow
// variant.
func fingerprint(m *sparse.CSR, cfg reorder.Config, v Variant) key {
	d := newDigest()
	d.word(uint64(v))
	d.word(uint64(m.Rows))
	d.word(uint64(m.Cols))
	d.int32s(m.RowPtr)
	d.int32s(m.ColIdx)
	d.bytes(configSignature(cfg))
	return key(d)
}

// Fingerprint renders the cache key of (matrix, config, variant) as
// the 32-hex-digit string used in snapshot file names. It is the
// stable plan identity that decision events and /debug/explain carry:
// two tenants (or two points in time) serving the same fingerprint are
// provably executing the same plan. O(nnz) — cheap next to any build,
// but callers on serving paths should compute it once and cache the
// string.
func Fingerprint(m *sparse.CSR, cfg reorder.Config, v Variant) string {
	k := fingerprint(m, cfg, v)
	return fmt.Sprintf("%016x%016x", k[0], k[1])
}

// valueHash fingerprints the nonzero values alone (bit patterns, so
// NaNs and -0 are distinguished exactly like the kernels see them).
func valueHash(vals []float32) key {
	d := newDigest()
	d.float32s(vals)
	return key(d)
}

// entry pins one cached plan and the hash of the values it was built
// with. All fields are immutable after construction.
type entry struct {
	k       key
	valHash key
	plan    *reorder.Plan
}

// Stats reports cache effectiveness counters. Hits and Misses count
// the in-memory tier; DiskHits counts misses that were served from the
// attached snapshot directory instead of recomputing (each such hit
// also repopulates the memory tier), and DiskMisses counts disk probes
// that found nothing usable — absent, truncated, corrupt, or
// mismatched plan files all fall back to recomputation.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	DiskHits   int64
	DiskMisses int64
	Entries    int
}

// Cache is a bounded, concurrency-safe, content-addressed LRU of
// preprocessing plans. The zero value is not usable; call New. A nil
// *Cache is valid and behaves as an always-miss cache, so callers can
// treat "caching disabled" uniformly.
type Cache struct {
	mu         sync.Mutex
	capacity   int
	ll         *list.List // front = most recently used; values are *entry
	byKey      map[key]*list.Element
	dir        string // "" = no disk tier
	hits       int64
	misses     int64
	evictions  int64
	diskHits   int64
	diskMisses int64
}

// New returns a cache holding at most capacity plans. capacity <= 0
// returns nil — the always-miss cache.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{capacity: capacity, ll: list.New(), byKey: make(map[key]*list.Element)}
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		DiskHits: c.diskHits, DiskMisses: c.diskMisses, Entries: c.ll.Len()}
}

// SetDir attaches dir as the cache's disk tier (creating it if needed):
// Snapshot writes every cached plan there as a content-addressed
// `<fingerprint>.plan` file, and a memory miss probes it for a
// previously snapshotted plan before recomputing — the warm-start path
// a restarted server takes. An empty dir detaches the tier.
func (c *Cache) SetDir(dir string) error {
	if c == nil {
		return nil
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
	return nil
}

// Dir returns the attached snapshot directory ("" when detached).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// planFileName is the content-addressed snapshot name for a cache key;
// the fingerprint already folds in structure, configuration, and
// workflow variant, so distinct plans never collide on a name.
func planFileName(k key) string {
	return fmt.Sprintf("%016x%016x.plan", k[0], k[1])
}

// Snapshot writes every currently cached plan to the attached directory
// (atomically, via reorder.WritePlanFile) and returns how many were
// written. With no directory attached it is a no-op. Individual write
// failures skip that entry and the first one is returned after the
// sweep completes — a snapshot is best-effort by design: the disk tier
// is an accelerator, never a correctness dependency.
func (c *Cache) Snapshot() (int, error) {
	if c == nil {
		return 0, nil
	}
	c.mu.Lock()
	dir := c.dir
	if dir == "" {
		c.mu.Unlock()
		return 0, nil
	}
	type item struct {
		k key
		p *reorder.Plan
	}
	items := make([]item, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		items = append(items, item{e.k, e.plan})
	}
	c.mu.Unlock()
	written := 0
	var firstErr error
	for _, it := range items {
		err := faultinject.Fire("plancache.disk.save")
		if err == nil {
			err = reorder.WritePlanFile(filepath.Join(dir, planFileName(it.k)), it.p)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		written++
	}
	return written, firstErr
}

// diskLoad probes the disk tier for a snapshotted plan matching k and,
// on success, applies it to m (O(nnz): permute + re-tile, no LSH or
// clustering) and repopulates the memory tier. Every failure — injected
// fault, absent file, truncation, corruption (ReadPlan's CRC check), or
// a plan that no longer matches m — is a silent miss: the caller
// recomputes from scratch, so a damaged snapshot can degrade only
// startup latency, never correctness.
func (c *Cache) diskLoad(dir string, k key, m *sparse.CSR, cfg reorder.Config, v Variant) (*reorder.Plan, bool) {
	bump := func(hit bool) {
		c.mu.Lock()
		if hit {
			c.diskHits++
		} else {
			c.diskMisses++
		}
		c.mu.Unlock()
	}
	if faultinject.Fire("plancache.disk.load") != nil {
		bump(false)
		return nil, false
	}
	sp, err := reorder.ReadPlanFile(filepath.Join(dir, planFileName(k)))
	if err != nil {
		bump(false)
		return nil, false
	}
	plan, err := sp.Apply(m, cfg)
	if err != nil {
		bump(false)
		return nil, false
	}
	c.Put(m, cfg, v, plan)
	bump(true)
	return plan, true
}

// Purge drops every entry (counters are kept).
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.byKey)
}

// Get returns a plan for m under cfg if one with the same structural
// fingerprint is cached. The returned plan is always a fresh *Plan
// header carrying the caller's cfg; its slices are shared with the
// cache (and with other hits) and must be treated as read-only — the
// same contract Pipeline already obeys. The second result reports a
// hit. Get performs no signature, clustering, or tiling work: a hit
// costs one O(nnz) hash (plus the O(nnz) value walk of
// reorder.Plan.WithValues when m's values differ from the cached ones).
func (c *Cache) Get(m *sparse.CSR, cfg reorder.Config, v Variant) (*reorder.Plan, bool) {
	p, tier := c.GetTier(m, cfg, v)
	return p, tier != TierMiss
}

// GetTier is Get reporting which tier satisfied the lookup, so callers
// (traces, metrics) can distinguish a memory hit from a disk reload.
func (c *Cache) GetTier(m *sparse.CSR, cfg reorder.Config, v Variant) (*reorder.Plan, Tier) {
	if c == nil {
		return nil, TierMiss
	}
	// An injected lookup failure is indistinguishable from a miss: the
	// caller recomputes, which is always correct.
	if faultinject.Fire("plancache.get") != nil {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, TierMiss
	}
	start := time.Now()
	k := fingerprint(m, cfg, v)
	c.mu.Lock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		dir := c.dir
		c.mu.Unlock()
		if dir != "" {
			if p, hit := c.diskLoad(dir, k, m, cfg, v); hit {
				if p.Preprocess = time.Since(start); p.Preprocess <= 0 {
					p.Preprocess = time.Nanosecond
				}
				return p, TierDisk
			}
		}
		return nil, TierMiss
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	c.mu.Unlock()

	np := *e.plan // shallow copy: cached contents are immutable
	np.Stages = reorder.StageTimings{}
	if valueHash(m.Val) != e.valHash {
		rp, err := e.plan.WithValues(m, cfg.Workers)
		if err != nil {
			// The cached plan no longer fits m's structure — a poisoned
			// entry must not serve and must not stay cached. Drop it
			// (from the disk tier too) and report a miss; the caller
			// recomputes, which is always correct.
			c.mu.Lock()
			if el2, ok := c.byKey[k]; ok && el2 == el {
				delete(c.byKey, k)
				c.ll.Remove(el2)
				c.evictions++
			}
			c.misses++
			dir := c.dir
			c.mu.Unlock()
			if dir != "" {
				os.Remove(filepath.Join(dir, planFileName(k)))
			}
			return nil, TierMiss
		}
		np = *rp
	}
	np.Cfg = cfg
	c.mu.Lock()
	c.hits++ // counted only once the plan is actually servable
	c.mu.Unlock()
	if np.Preprocess = time.Since(start); np.Preprocess <= 0 {
		np.Preprocess = time.Nanosecond
	}
	return &np, TierMemory
}

// Evict removes the plan for (m, cfg, v) from both cache tiers — the
// in-memory LRU entry and the content-addressed snapshot file in the
// attached directory — so a later lookup is a guaranteed recompute.
// This is the integrity quarantine controller's hammer: once a served
// result traced back to this plan fails shadow verification, every
// copy of the plan is suspect (the entry's arrays and the on-disk
// snapshot derive from the same build).
// It reports whether anything was removed.
func (c *Cache) Evict(m *sparse.CSR, cfg reorder.Config, v Variant) bool {
	if c == nil {
		return false
	}
	k := fingerprint(m, cfg, v)
	removed := false
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		delete(c.byKey, k)
		c.ll.Remove(el)
		c.evictions++
		removed = true
	}
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		if err := os.Remove(filepath.Join(dir, planFileName(k))); err == nil {
			removed = true
		}
	}
	return removed
}

// Put caches plan as the preprocessing result for m's structure under
// cfg. The plan must have been produced by reorder.Preprocess (or an
// equivalent) for exactly this matrix; mismatched inputs are ignored
// rather than cached wrongly.
func (c *Cache) Put(m *sparse.CSR, cfg reorder.Config, v Variant, plan *reorder.Plan) {
	if c == nil || plan == nil || plan.Reordered == nil || plan.Tiled == nil ||
		plan.Tiled.Rest == nil || plan.Reordered.Rows != m.Rows || plan.Reordered.NNZ() != m.NNZ() ||
		len(plan.RowPerm) != m.Rows {
		return
	}
	// An injected store failure simply skips caching; the next call for
	// this structure recomputes (or reloads from disk).
	if faultinject.Fire("plancache.put") != nil {
		return
	}
	e := &entry{
		k:       fingerprint(m, cfg, v),
		valHash: valueHash(m.Val),
		plan:    plan,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.k]; ok {
		// Same structure cached twice (e.g. two goroutines raced the
		// same cold miss): keep the freshest plan.
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[e.k] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		delete(c.byKey, back.Value.(*entry).k)
		c.ll.Remove(back)
		c.evictions++
	}
}

// Preprocess is the get-or-compute entry point: a structural hit
// returns (a re-skin of) the cached plan without any LSH, clustering,
// or tiling work; a miss runs reorder.Preprocess and caches the result.
// Concurrent misses on the same structure may compute the plan more
// than once; all of them store equivalent plans, so the race is benign.
func (c *Cache) Preprocess(m *sparse.CSR, cfg reorder.Config) (*reorder.Plan, error) {
	return c.preprocess(context.Background(), m, cfg, Full, reorder.PreprocessCtx)
}

// PreprocessNR is Preprocess for the no-reordering ASpT baseline. It
// shares the cache (under a distinct variant key) so an online pipeline
// replayed on a known structure skips both builds.
func (c *Cache) PreprocessNR(m *sparse.CSR, cfg reorder.Config) (*reorder.Plan, error) {
	return c.preprocess(context.Background(), m, cfg, NR, reorder.PreprocessNRCtx)
}

// PreprocessCtx is Preprocess with cooperative cancellation. A build
// that fails — including one cancelled mid-flight — is never cached, so
// a cancelled build cannot poison the cache with a partial plan; the
// next caller recomputes from scratch.
func (c *Cache) PreprocessCtx(ctx context.Context, m *sparse.CSR, cfg reorder.Config) (*reorder.Plan, error) {
	return c.preprocess(ctx, m, cfg, Full, reorder.PreprocessCtx)
}

// PreprocessNRCtx is PreprocessNR with cooperative cancellation (see
// PreprocessCtx).
func (c *Cache) PreprocessNRCtx(ctx context.Context, m *sparse.CSR, cfg reorder.Config) (*reorder.Plan, error) {
	return c.preprocess(ctx, m, cfg, NR, reorder.PreprocessNRCtx)
}

func (c *Cache) preprocess(ctx context.Context, m *sparse.CSR, cfg reorder.Config, v Variant,
	compute func(context.Context, *sparse.CSR, reorder.Config) (*reorder.Plan, error)) (*reorder.Plan, error) {
	getSpan, computeSpan, tierAttr := "plancache_get_full", "preprocess_compute_full", "plancache_full"
	if v == NR {
		getSpan, computeSpan, tierAttr = "plancache_get_nr", "preprocess_compute_nr", "plancache_nr"
	}
	tr := obs.TraceFrom(ctx)
	sp := tr.StartSpan(getSpan)
	p, tier := c.GetTier(m, cfg, v)
	sp.End()
	tr.Annotate(tierAttr, tier.String())
	if tier != TierMiss {
		return p, nil
	}
	sp = tr.StartSpan(computeSpan)
	p, err := compute(ctx, m, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	c.Put(m, cfg, v, p)
	return p, nil
}

package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// ErrMutation is wrapped by every rejected Mutation: out-of-range rows
// or columns, unsorted or duplicate columns in a row definition, a
// value update addressing a nonzero that does not exist, non-finite
// values, or duplicate/conflicting row operations. A rejected mutation
// changes nothing — application is all-or-nothing. Test with errors.Is.
var ErrMutation = errors.New("repro: invalid mutation")

// ErrOverlayFull is wrapped by mutations rejected because applying them
// would push the structural overlay past LiveConfig.MaxOverlayRows. The
// pipeline keeps serving its current state; retry after the background
// rebuild has swapped the overlay into a fresh base. Test with
// errors.Is.
var ErrOverlayFull = errors.New("repro: mutation overlay full")

// ErrStaleShape is wrapped by serving calls whose operands no longer
// fit the live matrix — typically buffers sized before an AppendRows
// landed. Re-read the shape (LivePipeline.Matrix) and resize. Test with
// errors.Is.
var ErrStaleShape = errors.New("repro: operand shape does not fit the live matrix")

// ErrQuiesced is returned by Mutate after Quiesce: the pipeline still
// serves reads, but its mutation log is closed.
var ErrQuiesced = errors.New("repro: live pipeline quiesced")

// ValueUpdate sets the value of one existing nonzero. The entry must
// exist in the (post-structural-ops) matrix; value updates cannot
// create structure.
type ValueUpdate struct {
	Row, Col int
	Val      float32
}

// RowDef is one row's full contents: columns strictly increasing and in
// range, values finite, len(Cols) == len(Vals). An empty RowDef is a
// valid (empty) row.
type RowDef struct {
	Cols []int32
	Vals []float32
}

// RowUpdate replaces row Row's contents with Def.
type RowUpdate struct {
	Row int
	Def RowDef
}

// Mutation is one atomically-applied batch of matrix edits. Within a
// batch the operations apply in a fixed order — ReplaceRows, then
// DeleteRows, then AppendRows, then UpdateValues — and validation is
// all-or-nothing: a batch with any invalid operation is rejected whole,
// wrapped in ErrMutation, without publishing anything.
type Mutation struct {
	// UpdateValues rewrites existing nonzeros in place. A batch that is
	// *only* value updates, applied to a pipeline with no structural
	// overlay outstanding, re-skins the base plans with one O(nnz) value
	// walk — no plan-cache lookup, LSH, clustering, or tiling — and
	// publishes atomically; structural work is never redone for values.
	UpdateValues []ValueUpdate
	// ReplaceRows swaps whole rows (existing rows only, including
	// previously appended ones). Structural: the rows join the overlay.
	ReplaceRows []RowUpdate
	// AppendRows grows the matrix by new rows at the bottom. Outputs
	// sized for the old shape fail with ErrStaleShape afterwards.
	AppendRows []RowDef
	// DeleteRows tombstones rows to empty (the shape never shrinks, so
	// row indices — and every caller's output buffers — stay stable).
	DeleteRows []int
}

// structural reports whether the mutation changes sparsity structure
// (anything beyond in-place value rewrites).
func (mu *Mutation) structural() bool {
	return len(mu.ReplaceRows) > 0 || len(mu.AppendRows) > 0 || len(mu.DeleteRows) > 0
}

func (mu *Mutation) empty() bool {
	return !mu.structural() && len(mu.UpdateValues) == 0
}

// LiveConfig tunes a LivePipeline's mutation machinery. The zero value
// gets serving defaults.
type LiveConfig struct {
	// MaxOverlayRows bounds the structural overlay (overlaid base rows
	// plus appended tail rows). Mutations that would exceed it fail with
	// ErrOverlayFull until a rebuild drains the overlay. Default 65536;
	// negative means unbounded.
	MaxOverlayRows int
	// RebuildDisabled turns the background re-preprocess off: structural
	// mutations accumulate in the overlay forever (bounded by
	// MaxOverlayRows). For tests and benchmarks that need the overlay
	// path to hold still.
	RebuildDisabled bool
}

// A background re-preprocess round makes up to rebuildMaxAttempts
// tries, backing off with full jitter between rebuildRetryBase and
// rebuildRetryMax. When a round exhausts its attempts the pipeline
// permanently degrades to overlay-forever serving (mirroring
// OnlinePipeline.Degraded): still correct, never fast again, visible in
// Stats and Degraded.
const (
	rebuildMaxAttempts = 3
	rebuildRetryBase   = 10 * time.Millisecond
	rebuildRetryMax    = 250 * time.Millisecond
)

func (c LiveConfig) withDefaults() LiveConfig {
	if c.MaxOverlayRows == 0 {
		c.MaxOverlayRows = 1 << 16
	}
	return c
}

// liveState is one immutable published generation of a live matrix.
// Readers pin a whole consistent state with a single atomic load; a
// state is never modified after publication, so an in-flight request
// keeps computing on the epoch it loaded while newer epochs publish
// around it (epoch-based grace: old states drain via the GC).
type liveState struct {
	// epoch bumps by exactly one per publish — every applied mutation
	// and every rebuild swap. Stats' identity: epoch == mutations+swaps.
	epoch uint64
	// structEpoch bumps per structural mutation and is the
	// Config.Epoch the next rebuild preprocesses under — it flows into
	// plan-cache fingerprints and plan-snapshot flag bits, so no stale
	// plan or snapshot can ever be applied to mutated structure.
	structEpoch uint32

	// base is the preprocessed base, built for baseM: row panels, one
	// for an unsharded tenant. cur is the fused matrix actually being
	// served: baseM plus every mutation since the base was built.
	base  *ShardedPipeline
	baseM *Matrix
	cur   *Matrix

	// overlay is the set of base rows (< baseM.Rows) whose contents
	// differ from baseM — served from cur, masking the base kernel's
	// output for those rows. Rows >= baseM.Rows (the appended tail) are
	// always served from cur. Unordered: rows are independent in SpMM,
	// so the merge is a pure row-range overwrite. A mutated state's
	// SDDMM runs on cur whole.
	overlay    map[int]struct{}
	overlayNNZ int // nonzeros served through the overlay (incl. tail)
	tailRows   int // cur.Rows - baseM.Rows

	// dirtySince is when the oldest still-unrebuilt mutation landed;
	// zero when the state is clean (base == cur).
	dirtySince time.Time
}

func (st *liveState) mutated() bool { return len(st.overlay) > 0 || st.tailRows > 0 }

// LivePipeline serves a matrix that can be mutated while being served,
// without ever going unavailable or exposing a torn state (DESIGN.md
// §14). Every read pins one immutable liveState via a single atomic
// load; every Mutate publishes a complete successor state:
//
//   - Value-only updates on a clean state re-skin the base plans with
//     one O(nnz) row walk per plan (Pipeline.withValues): every
//     structure array is shared, only values move, no plan-cache lookup
//     runs, and — the structure being unchanged — the §4
//     trial decision and the served plans' configurations carry over.
//     The walk range-checks its reads and checkBasePlans gates the
//     publish; an in-range value misroute (the
//     "integrity.corrupt.gather" fault site) persists in the re-skinned
//     plan until a rebuild replaces it, and only shadow verification
//     can see it.
//   - Structural mutations accumulate in a bounded row overlay served
//     alongside the base — the base SpMM kernels run unchanged over
//     the old structure and overlaid/appended rows are computed from
//     the fused matrix at output time; SDDMM runs the row-wise kernel
//     on the fused matrix — while a background budgeted re-preprocess
//     rebuilds the fused matrix (under a bumped structural epoch, with
//     full-jitter retry) and atomically swaps it in. Requests in flight
//     on the old epoch drain on the state they pinned.
//   - Repeated rebuild failure permanently degrades the pipeline to
//     overlay-forever serving, mirroring OnlinePipeline.Degraded:
//     correctness is never traded for the optimization.
//
// A LivePipeline is safe for concurrent use and implements the same
// serving surface as Pipeline/OnlinePipeline/ShardedPipeline, so the
// Server wraps every tenant in one.
type LivePipeline struct {
	ctx  context.Context
	lcfg LiveConfig
	// shardNNZ is the panel target rebuilds re-shard at (0: one panel);
	// sharded reports the base as a ShardedPipeline rather than an
	// OnlinePipeline (Online, Sharded).
	shardNNZ int
	sharded  bool

	state atomic.Pointer[liveState]

	// mu serialises writers (Mutate, rebuild snapshot/publish); readers
	// never take it.
	mu         sync.Mutex
	pending    []*Mutation // mutations since the in-flight rebuild's snapshot
	rebuilding bool
	idle       chan struct{} // non-nil while rebuilding; closed at loop exit
	closed     bool
	wg         sync.WaitGroup

	degraded atomic.Pointer[degradeReason]

	// sink receives decision events (plan swaps, overlay degradation;
	// trial/mispick events flow through the base panels' own sinks).
	// mispickCarry accumulates mispick counts of bases replaced by
	// rebuild swaps so Mispicked never goes backwards.
	sink         atomic.Pointer[eventSink]
	mispickCarry atomic.Int64

	mutations    obs.Counter // published mutation batches
	valueUpdates obs.Counter
	rowsReplaced obs.Counter
	rowsAppended obs.Counter
	rowsDeleted  obs.Counter
	reskins      obs.Counter // value-only base re-skins
	swaps        obs.Counter // rebuild swap publishes

	// mutateReskin and mutateOverlay time each published Mutate call by
	// the path it took (nil-safe; the Server registers them per tenant).
	mutateReskin, mutateOverlay *obs.Histogram

	rebuildsStarted   obs.Counter // attempts (each ends in exactly one bucket below or a swap)
	rebuildsFailed    obs.Counter
	rebuildsCancelled obs.Counter
}

// LiveStats is a point-in-time snapshot of a live pipeline's mutation
// counters. The counters reconcile exactly once the pipeline is idle
// (WaitRebuilt/Quiesce):
//
//	Epoch           == Mutations + Swaps
//	RebuildsStarted == Swaps + RebuildsFailed + RebuildsCancelled
type LiveStats struct {
	Epoch       uint64
	StructEpoch uint32

	Mutations    int64 // mutation batches applied (published)
	ValueUpdates int64 // individual nonzeros rewritten
	RowsReplaced int64
	RowsAppended int64
	RowsDeleted  int64
	Reskins      int64 // value-only O(nnz) base re-skins
	Swaps        int64 // background rebuilds atomically swapped in

	RebuildsStarted   int64 // rebuild attempts begun
	RebuildsFailed    int64
	RebuildsCancelled int64
	Rebuilding        bool
	Degraded          bool // overlay-forever: rebuilds abandoned

	OverlayRows int // base rows currently served from the overlay
	OverlayNNZ  int // nonzeros served through the overlay (incl. tail)
	TailRows    int // appended rows not yet folded into a base

	// StalenessSeconds is how long the oldest unrebuilt mutation has
	// been waiting for a swap; 0 when the base is current.
	StalenessSeconds float64

	Rows, Cols int // current served shape
}

// NewLivePipelineCtx builds a mutable serving pipeline over m: the base
// is an online pipeline (no-reorder plan synchronously; the reordered
// plan in the background under ctx and cfg.PreprocessBudget, started by
// the first call the reorder gate passes, then the §4 trial on the next
// one), and Mutate keeps it current as the matrix changes. Background
// rebuilds run under ctx: cancelling it stops them without degrading.
func NewLivePipelineCtx(ctx context.Context, m *Matrix, cfg Config, lcfg LiveConfig) (*LivePipeline, error) {
	return newLivePipeline(ctx, m, cfg, 0, false, lcfg)
}

// NewLiveShardedPipelineCtx is NewLivePipelineCtx with a row-panel
// sharded base (see NewShardedPipeline): each panel is gated and
// trialled on its own, and rebuilds re-shard the fused matrix at the
// same target.
func NewLiveShardedPipelineCtx(ctx context.Context, m *Matrix, cfg Config, targetNNZ int, lcfg LiveConfig) (*LivePipeline, error) {
	return newLivePipeline(ctx, m, cfg, targetNNZ, true, lcfg)
}

// newLivePipeline builds m's base at panel target shardNNZ and wraps it
// (see newLive).
func newLivePipeline(ctx context.Context, m *Matrix, cfg Config, shardNNZ int, sharded bool, lcfg LiveConfig) (*LivePipeline, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	base, err := newShardedPipeline(ctx, ctx, m, cfg, shardNNZ, nil)
	if err != nil {
		return nil, err
	}
	return newLive(ctx, base, shardNNZ, sharded, lcfg), nil
}

// newLive wraps an already-built base whose panels target shardNNZ
// nonzeros; sharded selects which of Online and Sharded reports it.
func newLive(ctx context.Context, base *ShardedPipeline, shardNNZ int, sharded bool, lcfg LiveConfig) *LivePipeline {
	l := &LivePipeline{ctx: ctx, lcfg: lcfg.withDefaults(), shardNNZ: shardNNZ, sharded: sharded}
	m := base.Matrix()
	l.state.Store(&liveState{base: base, baseM: m, cur: m, structEpoch: base.cfg().Epoch})
	return l
}

// Matrix returns the currently served matrix — the base plus every
// published mutation. The returned matrix is an immutable snapshot: a
// later mutation publishes a new one and never modifies this one.
func (l *LivePipeline) Matrix() *Matrix { return l.state.Load().cur }

// Online returns the current base online pipeline (nil for a sharded
// live pipeline). A rebuild swap replaces it; re-read after WaitRebuilt.
func (l *LivePipeline) Online() *OnlinePipeline {
	if l.sharded {
		return nil
	}
	return l.state.Load().base.panels[0].pipe
}

// Sharded returns the current base sharded pipeline (nil for an online
// live pipeline).
func (l *LivePipeline) Sharded() *ShardedPipeline {
	if !l.sharded {
		return nil
	}
	return l.state.Load().base
}

// Epoch returns the current publish generation: it bumps by one per
// applied mutation and per rebuild swap.
func (l *LivePipeline) Epoch() uint64 { return l.state.Load().epoch }

// Mispicked returns the tenant's total autotuner-feedback mispick
// count: windows in which the serving plan underperformed the trial
// loser, summed across every base this pipeline has served through
// (re-skins copy the count; rebuild swaps fold it into a carry). A
// sharded base counts every panel's windows.
func (l *LivePipeline) Mispicked() int64 {
	return l.mispickCarry.Load() + l.state.Load().base.mispicks()
}

// setEventSink routes this pipeline's decision events (plan swaps,
// overlay degradation, trial winners, mispicks) to ring, labelled with
// tenant. Call before serving; rebuilt bases inherit the sink.
func (l *LivePipeline) setEventSink(ring *obs.EventRing, tenant string) {
	if ring == nil {
		return
	}
	es := &eventSink{ring: ring, tenant: tenant}
	l.sink.Store(es)
	l.state.Load().base.setSink(es)
}

// Degraded reports whether background rebuilding was permanently
// abandoned (overlay-forever serving) and the error that caused it.
func (l *LivePipeline) Degraded() (bool, error) {
	if d := l.degraded.Load(); d != nil {
		return true, d.err
	}
	return false, nil
}

// Stats snapshots the mutation counters (see LiveStats for the exact
// reconciliation identities).
func (l *LivePipeline) Stats() LiveStats {
	st := l.state.Load()
	ls := LiveStats{
		Epoch:             st.epoch,
		StructEpoch:       st.structEpoch,
		Mutations:         l.mutations.Value(),
		ValueUpdates:      l.valueUpdates.Value(),
		RowsReplaced:      l.rowsReplaced.Value(),
		RowsAppended:      l.rowsAppended.Value(),
		RowsDeleted:       l.rowsDeleted.Value(),
		Reskins:           l.reskins.Value(),
		Swaps:             l.swaps.Value(),
		RebuildsStarted:   l.rebuildsStarted.Value(),
		RebuildsFailed:    l.rebuildsFailed.Value(),
		RebuildsCancelled: l.rebuildsCancelled.Value(),
		OverlayRows:       len(st.overlay),
		OverlayNNZ:        st.overlayNNZ,
		TailRows:          st.tailRows,
		Rows:              st.cur.Rows,
		Cols:              st.cur.Cols,
	}
	if st.mutated() && !st.dirtySince.IsZero() {
		ls.StalenessSeconds = time.Since(st.dirtySince).Seconds()
	}
	ls.Degraded = l.degraded.Load() != nil
	l.mu.Lock()
	ls.Rebuilding = l.rebuilding
	l.mu.Unlock()
	return ls
}

// overlayCost reports the overlay's and base's nonzero counts, the
// inputs to serve.OverlayWeight admission scaling.
func (l *LivePipeline) overlayCost() (overlayNNZ, baseNNZ int64) {
	st := l.state.Load()
	return int64(st.overlayNNZ), int64(st.baseM.NNZ())
}

// validateBatchOp is the coalescer's launch-time gate: operands sized
// for a pre-mutation shape are excised from the batch with
// ErrStaleShape instead of failing (or corrupting) the batch.
func (l *LivePipeline) validateBatchOp(op BatchOp) error {
	return l.state.Load().checkSpMM(op.Y, op.X)
}

// checkSpMM rejects SpMM operands that do not fit this state's fused
// matrix with ErrStaleShape.
func (st *liveState) checkSpMM(y, x *Dense) error {
	if cur := st.cur; y.Rows != cur.Rows || y.Cols != x.Cols || x.Rows != cur.Cols {
		return fmt.Errorf("%w: operands y %dx%d, x %dx%d vs %dx%d at epoch %d",
			ErrStaleShape, y.Rows, y.Cols, x.Rows, x.Cols, cur.Rows, cur.Cols, st.epoch)
	}
	return nil
}

// checkSDDMM is checkSpMM for SDDMM: out must have the fused matrix's
// structure and the operands its shape.
func (st *liveState) checkSDDMM(out *Matrix, x, y *Dense) error {
	cur := st.cur
	if out != cur && !out.SameStructure(cur) {
		return fmt.Errorf("%w: SDDMM output structure differs from the live matrix at epoch %d",
			ErrStaleShape, st.epoch)
	}
	if y.Rows != cur.Rows || x.Rows != cur.Cols || x.Cols != y.Cols {
		return fmt.Errorf("%w: operands y %dx%d, x %dx%d vs %dx%d at epoch %d",
			ErrStaleShape, y.Rows, y.Cols, x.Rows, x.Cols, cur.Rows, cur.Cols, st.epoch)
	}
	return nil
}

// Mutate validates and applies one mutation batch atomically: readers
// see either the whole batch or none of it, with no unavailability in
// between. Value-only batches on a clean state re-skin the base in
// O(nnz); anything structural lands in the overlay and (unless
// RebuildDisabled) arms the background re-preprocess. A mutation
// arriving while a rebuild is in flight is additionally logged and
// replayed onto the rebuilt base at swap time, so no edit is ever lost
// to a rebuild race. Blocks while the initial background plan build is
// still running (bounded by ctx).
func (l *LivePipeline) Mutate(ctx context.Context, mu Mutation) error {
	if mu.empty() {
		return nil
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrQuiesced
	}
	st := l.state.Load()
	nm, err := normalizeMutation(st.cur, &mu)
	if err != nil {
		return err
	}
	if nm.structural() {
		if err := faultinject.Fire("live.overlay.append"); err != nil {
			return err
		}
	}
	ns, reskinned, err := l.applyLocked(ctx, st, nm)
	if err != nil {
		return err
	}
	if l.lcfg.MaxOverlayRows >= 0 && len(ns.overlay)+ns.tailRows > l.lcfg.MaxOverlayRows {
		return fmt.Errorf("%w: %d overlay rows (max %d)",
			ErrOverlayFull, len(ns.overlay)+ns.tailRows, l.lcfg.MaxOverlayRows)
	}
	ns.epoch = st.epoch + 1
	l.state.Store(ns)
	l.mutations.Inc()
	l.valueUpdates.Add(int64(len(nm.UpdateValues)))
	l.rowsReplaced.Add(int64(len(nm.ReplaceRows)))
	l.rowsAppended.Add(int64(len(nm.AppendRows)))
	l.rowsDeleted.Add(int64(len(nm.DeleteRows)))
	if reskinned {
		l.reskins.Inc()
		l.mutateReskin.ObserveSince(start)
	} else {
		l.mutateOverlay.ObserveSince(start)
	}
	if l.rebuilding {
		l.pending = append(l.pending, nm)
	} else if ns.mutated() && !l.lcfg.RebuildDisabled && l.degraded.Load() == nil {
		l.startRebuildLocked()
	}
	return nil
}

// applyLocked builds the successor state for one normalized mutation.
// It never touches epoch or counters (the caller owns those — Mutate
// publishes, the rebuild swap replays without recounting). Caller holds
// l.mu.
func (l *LivePipeline) applyLocked(ctx context.Context, st *liveState, nm *Mutation) (*liveState, bool, error) {
	newCur, err := applyToMatrix(st.cur, nm)
	if err != nil {
		return nil, false, err
	}
	if !nm.structural() && !st.mutated() {
		// Value-only on a clean state: re-skin every base plan with one
		// O(nnz) value walk (no plan-cache lookup, no preprocessing); the
		// §4 trial decisions carry over inside reskin.
		base, err := st.base.reskin(ctx, newCur)
		if err != nil {
			return nil, false, err
		}
		// Pre-publish invariant gate: the walk checks its own reads, and
		// this re-checks the structure the re-skinned plans share, so a
		// structurally broken plan is rejected before it can serve.
		if cerr := checkBasePlans(base); cerr != nil {
			return nil, false, cerr
		}
		return &liveState{structEpoch: st.structEpoch, base: base, baseM: newCur, cur: newCur}, true, nil
	}
	// Overlay path: the base keeps serving its old structure; every
	// touched base row joins the overlay and is served from the fused
	// matrix instead.
	ov := make(map[int]struct{}, len(st.overlay)+len(nm.ReplaceRows)+len(nm.DeleteRows)+len(nm.UpdateValues))
	for r := range st.overlay {
		ov[r] = struct{}{}
	}
	baseRows := st.baseM.Rows
	touch := func(r int) {
		if r < baseRows {
			ov[r] = struct{}{}
		}
	}
	for i := range nm.ReplaceRows {
		touch(nm.ReplaceRows[i].Row)
	}
	for _, r := range nm.DeleteRows {
		touch(r)
	}
	for i := range nm.UpdateValues {
		// With a structural overlay outstanding the base cannot be
		// re-skinned row-selectively, so value-updated rows are served
		// from the fused matrix too (tail rows already are).
		touch(nm.UpdateValues[i].Row)
	}
	se := st.structEpoch
	if nm.structural() {
		se++
	}
	ns := &liveState{
		structEpoch: se,
		base:        st.base,
		baseM:       st.baseM,
		cur:         newCur,
		overlay:     ov,
		tailRows:    newCur.Rows - baseRows,
		dirtySince:  st.dirtySince,
	}
	if ns.dirtySince.IsZero() {
		ns.dirtySince = time.Now()
	}
	nnz := newCur.NNZ() - int(newCur.RowPtr[baseRows]) // tail
	for r := range ov {
		nnz += newCur.RowLen(r)
	}
	ns.overlayNNZ = nnz
	return ns, false, nil
}

// normalizeMutation validates mu against cur and returns a normalized
// deep copy (row definitions sorted by column) safe to retain for
// replay. All-or-nothing: the first invalid operation rejects the whole
// batch with a wrapped ErrMutation. Value-update target existence is
// checked later, in applyToMatrix, against the post-structural-ops
// matrix.
func normalizeMutation(cur *Matrix, mu *Mutation) (*Mutation, error) {
	nm := &Mutation{}
	seen := make(map[int]bool, len(mu.ReplaceRows)+len(mu.DeleteRows))
	for _, ru := range mu.ReplaceRows {
		if ru.Row < 0 || ru.Row >= cur.Rows {
			return nil, fmt.Errorf("%w: replace of row %d (matrix has %d)", ErrMutation, ru.Row, cur.Rows)
		}
		if seen[ru.Row] {
			return nil, fmt.Errorf("%w: row %d named twice", ErrMutation, ru.Row)
		}
		seen[ru.Row] = true
		def, err := normRowDef(cur.Cols, ru.Def)
		if err != nil {
			return nil, err
		}
		nm.ReplaceRows = append(nm.ReplaceRows, RowUpdate{Row: ru.Row, Def: def})
	}
	for _, r := range mu.DeleteRows {
		if r < 0 || r >= cur.Rows {
			return nil, fmt.Errorf("%w: delete of row %d (matrix has %d)", ErrMutation, r, cur.Rows)
		}
		if seen[r] {
			return nil, fmt.Errorf("%w: row %d named twice", ErrMutation, r)
		}
		seen[r] = true
		nm.DeleteRows = append(nm.DeleteRows, r)
	}
	for _, def := range mu.AppendRows {
		nd, err := normRowDef(cur.Cols, def)
		if err != nil {
			return nil, err
		}
		nm.AppendRows = append(nm.AppendRows, nd)
	}
	newRows := cur.Rows + len(mu.AppendRows)
	for _, u := range mu.UpdateValues {
		if u.Row < 0 || u.Row >= newRows {
			return nil, fmt.Errorf("%w: value update of row %d (matrix will have %d)", ErrMutation, u.Row, newRows)
		}
		if u.Col < 0 || u.Col >= cur.Cols {
			return nil, fmt.Errorf("%w: value update of column %d (matrix has %d)", ErrMutation, u.Col, cur.Cols)
		}
		if !finite(u.Val) {
			return nil, fmt.Errorf("%w: non-finite value at (%d,%d)", ErrMutation, u.Row, u.Col)
		}
		nm.UpdateValues = append(nm.UpdateValues, u)
	}
	return nm, nil
}

func finite(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// normRowDef copies and canonicalizes one row definition: entries
// sorted by column, columns unique and in [0, cols), values finite.
func normRowDef(cols int, def RowDef) (RowDef, error) {
	if len(def.Cols) != len(def.Vals) {
		return RowDef{}, fmt.Errorf("%w: row has %d columns but %d values",
			ErrMutation, len(def.Cols), len(def.Vals))
	}
	nd := RowDef{
		Cols: append([]int32(nil), def.Cols...),
		Vals: append([]float32(nil), def.Vals...),
	}
	if !sort.SliceIsSorted(nd.Cols, func(i, j int) bool { return nd.Cols[i] < nd.Cols[j] }) {
		sort.Sort(&rowDefSort{nd})
	}
	var prev int32 = -1
	for i, c := range nd.Cols {
		if c < 0 || int(c) >= cols {
			return RowDef{}, fmt.Errorf("%w: column %d out of range [0,%d)", ErrMutation, c, cols)
		}
		if c == prev {
			return RowDef{}, fmt.Errorf("%w: duplicate column %d in row definition", ErrMutation, c)
		}
		prev = c
		if !finite(nd.Vals[i]) {
			return RowDef{}, fmt.Errorf("%w: non-finite value at column %d", ErrMutation, c)
		}
	}
	return nd, nil
}

type rowDefSort struct{ d RowDef }

func (s *rowDefSort) Len() int           { return len(s.d.Cols) }
func (s *rowDefSort) Less(i, j int) bool { return s.d.Cols[i] < s.d.Cols[j] }
func (s *rowDefSort) Swap(i, j int) {
	s.d.Cols[i], s.d.Cols[j] = s.d.Cols[j], s.d.Cols[i]
	s.d.Vals[i], s.d.Vals[j] = s.d.Vals[j], s.d.Vals[i]
}

// applyToMatrix materialises the fused matrix: cur with nm applied. cur
// is never modified. nm must already be normalized. A value-only batch
// shares cur's RowPtr and ColIdx and copies only Val.
func applyToMatrix(cur *Matrix, nm *Mutation) (*Matrix, error) {
	m := &sparse.CSR{Rows: cur.Rows, Cols: cur.Cols, RowPtr: cur.RowPtr, ColIdx: cur.ColIdx}
	if nm.structural() {
		var err error
		if m, err = applyStructure(cur, nm); err != nil {
			return nil, err
		}
	} else {
		m.Val = slices.Clone(cur.Val)
	}
	for _, u := range nm.UpdateValues {
		cols := m.RowCols(u.Row)
		k := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(u.Col) })
		if k == len(cols) || cols[k] != int32(u.Col) {
			return nil, fmt.Errorf("%w: no nonzero at (%d,%d) to update", ErrMutation, u.Row, u.Col)
		}
		m.Val[int(m.RowPtr[u.Row])+k] = u.Val
	}
	return m, nil
}

// applyStructure returns a fresh copy of cur with nm's row
// replacements, deletions and appends applied (not its value updates).
func applyStructure(cur *Matrix, nm *Mutation) (*Matrix, error) {
	rep := make(map[int]*RowDef, len(nm.ReplaceRows))
	for i := range nm.ReplaceRows {
		rep[nm.ReplaceRows[i].Row] = &nm.ReplaceRows[i].Def
	}
	del := make(map[int]bool, len(nm.DeleteRows))
	for _, r := range nm.DeleteRows {
		del[r] = true
	}
	newRows := cur.Rows + len(nm.AppendRows)
	rowPtr := make([]int32, newRows+1)
	nnz := 0
	for i := 0; i < cur.Rows; i++ {
		switch {
		case del[i]:
		case rep[i] != nil:
			nnz += len(rep[i].Cols)
		default:
			nnz += cur.RowLen(i)
		}
		rowPtr[i+1] = int32(nnz)
	}
	for j := range nm.AppendRows {
		nnz += len(nm.AppendRows[j].Cols)
		rowPtr[cur.Rows+j+1] = int32(nnz)
	}
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d nonzeros overflow the CSR index type", ErrMutation, nnz)
	}
	colIdx := make([]int32, nnz)
	val := make([]float32, nnz)
	for i := 0; i < cur.Rows; i++ {
		off := rowPtr[i]
		switch {
		case del[i]:
		case rep[i] != nil:
			copy(colIdx[off:], rep[i].Cols)
			copy(val[off:], rep[i].Vals)
		default:
			copy(colIdx[off:], cur.RowCols(i))
			copy(val[off:], cur.RowVals(i))
		}
	}
	for j := range nm.AppendRows {
		off := rowPtr[cur.Rows+j]
		copy(colIdx[off:], nm.AppendRows[j].Cols)
		copy(val[off:], nm.AppendRows[j].Vals)
	}
	return &sparse.CSR{Rows: newRows, Cols: cur.Cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// --- serving ---

// SpMMIntoCtx computes Y = S·X against the current epoch. The unmutated
// fast path is one atomic load plus the base pipeline's zero-allocation
// execution; with an overlay outstanding, the base kernels compute the
// base rows directly into y's prefix and the overlaid/appended rows are
// filled from the fused matrix at output-scatter time.
func (l *LivePipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	return l.state.Load().spmmInto(ctx, y, x, x.Cols, modeFull)
}

// batchPass returns the pass a coalesced batch runs through. The batch
// runs at its stacked width, but the base panels' reorder gates judge
// the widest operand, so stacking requests never starts or uses a
// reordered plan that none of them would: where some panel's gate
// passes the widest operand, l serves the batch at the stacked width;
// otherwise narrowPass runs it below every gate.
func (l *LivePipeline) batchPass(ops []BatchOp) kernels.SpMMPass {
	widest := 0
	for _, op := range ops {
		widest = max(widest, op.X.Cols)
	}
	if l.state.Load().base.anyPanel(func(o *OnlinePipeline) bool { return o.gate.pass(widest) }) {
		return l
	}
	return narrowPass{l}
}

// narrowPass serves a live pipeline's SpMM as a call below its base's
// reorder gates — width 0, which no gate passes: the no-reorder plans,
// starting no reordered build. One pointer wide, so passing it as an
// interface does not allocate.
type narrowPass struct{ l *LivePipeline }

func (p narrowPass) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	return p.l.state.Load().spmmInto(ctx, y, x, 0, modeFull)
}

// SpMMInto is SpMMIntoCtx without cancellation.
func (l *LivePipeline) SpMMInto(y *Dense, x *Dense) error {
	return l.SpMMIntoCtx(context.Background(), y, x)
}

// baseGen identifies the current base-plan generation for the
// integrity monitor: it advances exactly when the base plans are
// replaced — a value-only re-skin or a rebuild swap — and never on
// overlay mutations, which don't touch the suspect plans. The monitor
// quarantines a generation and reinstates only after observing a
// different one serve a clean probation window.
func (l *LivePipeline) baseGen() uint64 {
	return uint64(l.reskins.Value() + l.swaps.Value())
}

// ForceRebuild arms a background re-preprocess of the current fused
// matrix even when the overlay is clean — the integrity controller's
// healing kick after evicting a suspect plan from the cache. A no-op
// while closed, degraded, already rebuilding, or with rebuilds
// disabled (in those cases the tenant simply stays on the quarantine
// fallback, which is always correct).
func (l *LivePipeline) ForceRebuild() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.rebuilding || l.lcfg.RebuildDisabled || l.degraded.Load() != nil {
		return
	}
	l.startRebuildLocked()
}

// evictPlans removes the current base's plans — every plan each panel
// holds — from both plan-cache tiers (memory and disk snapshot), each
// under its own plan.Cfg key, so the healing rebuild recomputes them
// from scratch instead of reloading the suspect entries.
func (l *LivePipeline) evictPlans() {
	pc := planCache.Load()
	for _, p := range l.state.Load().base.plans() {
		pc.Evict(p.Matrix(), p.plan.Cfg)
	}
}

// spmmInto serves y = cur·x against this state in mode:
//
//   - modeFull and modeVerify run the base unit, with the overlay merged.
//   - modeFallback (the breaker's) runs the base at width 0, which no
//     reorder gate passes: every panel's no-reorder plan, with the same
//     overlay merge — a mutated tenant's fallback must not resurrect
//     pre-mutation data or shapes.
//   - modeQuarantine (the integrity reference path) runs the plain
//     row-wise kernel on the fused, original-order matrix. It shares no
//     transformed representation (permutation, tiles, slabs, gather
//     maps) with any plan under suspicion, and it is bit-identical to
//     the cold-rebuild oracle (repro.SpMM runs the same kernel on the
//     same matrix). The breaker's fallback runs the no-reorder plans,
//     which may be the very thing quarantined.
//
// k is the width the base's reorder gate judges: x.Cols, or a coalesced
// batch's widest operand.
func (st *liveState) spmmInto(ctx context.Context, y *Dense, x *Dense, k int, mode serveMode) error {
	if err := st.checkSpMM(y, x); err != nil {
		return err
	}
	cur := st.cur
	if mode == modeQuarantine {
		return kernels.SpMMRowWiseIntoCtx(ctx, y, cur, x)
	}
	if mode == modeFallback {
		k = 0
	}
	if !st.mutated() {
		return st.base.spmmInto(ctx, y, x, k)
	}
	// Rows are independent: the base pass writes its rows straight into
	// y's prefix (a zero-copy view), then the overlay overwrites its
	// rows and the tail is computed in place.
	var yb dense.Matrix
	yb.Rows, yb.Cols = st.baseM.Rows, y.Cols
	yb.Data = y.Data[:st.baseM.Rows*y.Cols]
	if err := st.base.spmmInto(ctx, &yb, x, k); err != nil {
		return err
	}
	err := st.overlayRows(ctx, func(r int) {
		kernels.SpMMRow(y.Row(r), x.Data, cur.RowCols(r), cur.RowVals(r))
	})
	if err != nil {
		return err
	}
	// Corruption fault site: flip one entry of the lowest overlay (or
	// first tail) row in the *served output* — the fused truth stays
	// intact, modelling a bug in the overlay merge itself. Never fires
	// into the breaker/quarantine fallback path, and only an armed
	// CorruptAt hook corrupts (the generic chaos soak's ErrorAt sweep
	// is a no-op here).
	if err := faultinject.Fire("integrity.corrupt.overlay"); errors.Is(err, faultinject.ErrCorrupt) && mode != modeFallback && y.Cols > 0 {
		r := -1
		for ov := range st.overlay {
			if r < 0 || ov < r {
				r = ov
			}
		}
		if r < 0 && cur.Rows > st.baseM.Rows {
			r = st.baseM.Rows
		}
		if r >= 0 {
			y.Row(r)[0] = y.Row(r)[0]*2 + 1
			integrity.CorruptionInjected()
		}
	}
	return nil
}

// SDDMMIntoCtx computes O = S ⊙ (Y·Xᵀ) against the current epoch; out
// must have the current fused matrix's structure.
func (l *LivePipeline) SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error {
	return l.state.Load().sddmmInto(ctx, out, x, y, modeFull)
}

// sddmmInto is spmmInto's SDDMM analog, routing the same four modes.
func (st *liveState) sddmmInto(ctx context.Context, out *Matrix, x, y *Dense, mode serveMode) error {
	if err := st.checkSDDMM(out, x, y); err != nil {
		return err
	}
	// out's structure was checked against cur above, once: no layer
	// below compares it again. A mutated state runs the row-wise kernel
	// on the fused matrix: every plan's SDDMM is that kernel over
	// reordered rows, and each nonzero is one dot whichever order the
	// rows are visited in, so the bits match a base pass plus the
	// overlay.
	if mode == modeQuarantine || st.mutated() {
		return kernels.SDDMMRowWiseIntoRowsCtx(ctx, out, nil, st.cur, x, y)
	}
	k := x.Cols
	if mode == modeFallback {
		k = 0
	}
	return st.base.sddmmInto(ctx, out, x, y, k)
}

// overlayRows calls fn for every row served from the fused matrix
// rather than the base pass — the overlay rows, then the appended tail
// — and observes ctx every 256 rows.
func (st *liveState) overlayRows(ctx context.Context, fn func(r int)) error {
	n := 0
	for r := range st.overlay {
		if n++; n&0xFF == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		fn(r)
	}
	for r := st.baseM.Rows; r < st.cur.Rows; r++ {
		if n++; n&0xFF == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		fn(r)
	}
	return nil
}

// --- background rebuild ---

// startRebuildLocked arms the background re-preprocess. Caller holds
// l.mu and has already published the state that made the overlay dirty.
func (l *LivePipeline) startRebuildLocked() {
	l.rebuilding = true
	l.idle = make(chan struct{})
	l.pending = nil
	l.wg.Add(1)
	go l.rebuildLoop()
}

// rebuildLoop runs rebuild rounds until the overlay is clean, the
// pipeline quiesces, its context dies, or a round exhausts its retries
// (permanent degradation to overlay-forever serving).
func (l *LivePipeline) rebuildLoop() {
	defer l.wg.Done()
	for {
		err := l.rebuildOnce()
		l.mu.Lock()
		if err != nil && l.ctx.Err() == nil && !l.closed {
			// Out of attempts with a live pipeline: stop trading CPU for
			// a base that will not build. The overlay keeps serving —
			// correct, bounded, and visibly degraded.
			l.degraded.Store(&degradeReason{err: err})
			l.sink.Load().emit(obs.Event{
				Type:   obs.EventOverlayDegraded,
				Epoch:  l.state.Load().epoch,
				Detail: err.Error(),
			})
		}
		st := l.state.Load()
		if err != nil || l.closed || !st.mutated() {
			l.rebuilding = false
			l.pending = nil
			close(l.idle)
			l.idle = nil
			l.mu.Unlock()
			return
		}
		// Pending mutations replayed at swap left the overlay dirty
		// again: go around for another round.
		l.mu.Unlock()
	}
}

// rebuildOnce is one full-jitter-retried rebuild round.
func (l *LivePipeline) rebuildOnce() error {
	pol := serve.RetryPolicy{
		MaxAttempts: rebuildMaxAttempts,
		BaseDelay:   rebuildRetryBase,
		MaxDelay:    rebuildRetryMax,
	}
	// Every non-context failure is worth retrying: preprocessing is
	// time-dependent (budget pressure, injected faults, memory churn).
	_, err := serve.Retry(l.ctx, pol,
		func(error) bool { return true },
		func(int) error { return l.rebuildAttempt() })
	return err
}

// rebuildAttempt snapshots the fused matrix, preprocesses it from
// scratch under the bumped structural epoch, and — on success —
// atomically swaps the rebuilt base in, replaying any mutations that
// landed mid-build. Each attempt lands in exactly one of swaps,
// rebuildsFailed, or rebuildsCancelled.
func (l *LivePipeline) rebuildAttempt() (err error) {
	l.rebuildsStarted.Inc()
	defer func() {
		if err != nil {
			if l.ctx.Err() != nil {
				l.rebuildsCancelled.Inc()
			} else {
				l.rebuildsFailed.Inc()
			}
		}
	}()
	if err := faultinject.Fire("live.rebuild.start"); err != nil {
		return err
	}
	l.mu.Lock()
	st := l.state.Load()
	snapM := st.cur
	snapEpoch := st.structEpoch
	// Mutations before this point are in snapM; the log restarts so the
	// publish below replays exactly the ones the snapshot misses.
	l.pending = nil
	l.mu.Unlock()

	cfg := st.base.cfg()
	cfg.Epoch = snapEpoch
	// The rebuilt base is gated like any other: a panel builds its
	// reordered plan only if a call wide enough to use it arrives.
	base, err := newShardedPipeline(l.ctx, l.ctx, snapM, cfg, l.shardNNZ, nil)
	if err != nil {
		return err
	}
	// The rebuilt base inherits the event sink before it publishes
	// (nothing serves through it yet).
	if es := l.sink.Load(); es != nil {
		base.setSink(es)
	}
	// Pre-swap invariant gate (outside the lock — O(rows+nnz)): a
	// structurally corrupt rebuild counts as a failed attempt and never
	// publishes; the retry/degrade machinery owns what happens next.
	if err := checkBasePlans(base); err != nil {
		return err
	}
	// Name the rebuilt base for the swap event while still off the lock
	// (the digest is O(nnz)).
	var swapFP, swapKernel string
	if l.sink.Load() != nil {
		swapFP, swapKernel = base.fingerprint(), base.panels[0].pipe.Kernel().String()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := faultinject.Fire("live.swap.publish"); err != nil {
		return err
	}
	cur := l.state.Load()
	ns := &liveState{structEpoch: snapEpoch, base: base, baseM: snapM, cur: snapM}
	for _, nm := range l.pending {
		// Replay through the same apply path the mutations originally
		// took; they were counted then, so only the state moves now.
		next, _, aerr := l.applyLocked(l.ctx, ns, nm)
		if aerr != nil {
			return fmt.Errorf("repro: replaying %d pending mutations at swap: %w", len(l.pending), aerr)
		}
		ns = next
	}
	// One publish, one epoch bump — the replayed mutations bumped the
	// epoch when they originally published.
	ns.epoch = cur.epoch + 1
	l.pending = nil
	// The replaced base's mispick count folds into the carry so the
	// tenant's total never goes backwards across swaps.
	l.mispickCarry.Add(cur.base.mispicks())
	l.state.Store(ns)
	l.swaps.Inc()
	l.sink.Load().emit(obs.Event{
		Type:   obs.EventPlanSwap,
		Epoch:  ns.epoch,
		PlanFP: swapFP,
		Kernel: swapKernel,
	})
	return nil
}

// checkBasePlans validates the pre-swap structural invariants
// (integrity.CheckPlan: permutation bijectivity, RowPtr monotonicity,
// index ranges) of every plan a base serves from — each panel's
// no-reorder and, once built, reordered plan.
func checkBasePlans(base *ShardedPipeline) error {
	for _, p := range base.plans() {
		if err := checkPipelinePlan(p); err != nil {
			return err
		}
	}
	return nil
}

func checkPipelinePlan(p *Pipeline) error {
	return integrity.CheckPlan(p.plan.RowPerm, p.plan.InvRowPerm, p.plan.Reordered)
}

// Rebuilding reports whether a background re-preprocess is in flight.
func (l *LivePipeline) Rebuilding() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rebuilding
}

// WaitRebuilt blocks until no background rebuild is in flight (the
// overlay has been swapped into a fresh base, the pipeline degraded, or
// rebuilding is disabled) or ctx dies. After a nil return the counters
// in Stats reconcile exactly.
func (l *LivePipeline) WaitRebuilt(ctx context.Context) error {
	for {
		l.mu.Lock()
		ch := l.idle
		l.mu.Unlock()
		if ch == nil {
			return nil
		}
		select {
		case <-ch:
			// Loop: a mutation may have armed a fresh rebuild between the
			// close and our re-check.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Quiesce closes the mutation log (Mutate fails with ErrQuiesced) and
// joins the background rebuild machinery, bounded by ctx. Serving calls
// keep working on the final published state. To abandon an in-flight
// rebuild instead of waiting it out, cancel the context the pipeline
// was constructed with first.
func (l *LivePipeline) Quiesce(ctx context.Context) error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

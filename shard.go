package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plancache"
	"repro/internal/sparse"
)

// ShardedPipeline splits a large matrix into nnz-balanced row panels at
// preprocessing time and serves each panel through its own
// OnlinePipeline — the 1-D row-tiling decomposition (Gale et al.)
// lifted to the serving layer. Because SpMM rows are independent, a
// panel's output is exactly the corresponding row range of the
// unsharded output: "merging" the panels is not a reduction, each
// panel writes straight into a zero-copy row-range view of the
// caller's Y.
//
// What sharding buys over one big pipeline:
//
//   - Preprocessing parallelism and bounded working sets: LSH,
//     clustering, and tiling run per panel (concurrently), and each
//     panel's plan is cached independently in the process-wide plan
//     cache, so growing a matrix reuses the untouched panels' plans.
//   - Panel-local decisions: the autotuner sees each panel's structure
//     in isolation, so a matrix whose top rows are hub-heavy and whose
//     tail is uniform can run merge on one panel and row-wise on
//     another. Each panel also has its own reorder gate, judged on the
//     columns that panel references, and runs its own §4 trial once a
//     call passes it (see OnlinePipeline); a panel whose reordered
//     build fails keeps serving its no-reorder plan.
//
// A single panel is the whole matrix: its OnlinePipeline serves the
// caller's matrix itself, and calls go straight to it. Every serving
// base is such a pipeline — an unsharded live tenant is a one-panel
// base.
//
// A ShardedPipeline is safe for concurrent use. It implements the same
// one-primitive serving contract as every other pipeline type
// (SpMMIntoCtx, SDDMMIntoCtx), so the serving layer can treat them
// interchangeably.
type ShardedPipeline struct {
	orig   *Matrix
	panels []shardPanel

	// views pools the per-call panel view structs (dense row-range
	// windows into Y, CSR value windows into SDDMM outputs) so serving
	// calls do not allocate per panel.
	views sync.Pool
}

// shardPanel is one row panel [lo, hi) of the original matrix. pipe
// serves the panel's sub-CSR, which shares ColIdx/Val backing arrays
// with the original matrix (only the rebased RowPtr is panel-owned); a
// single panel's sub-CSR is the original matrix.
type shardPanel struct {
	lo, hi int
	base   int // original RowPtr[lo]: offset of the panel's first nonzero
	pipe   *OnlinePipeline
}

// shardViews is the pooled per-call scratch: one dense view and one CSR
// view per panel, re-pointed at the caller's operands on every call.
type shardViews struct {
	ys   []dense.Matrix
	outs []sparse.CSR
}

// panelBounds splits m's rows into nnz-balanced panels of roughly
// targetNNZ nonzeros each (the best any row-aligned partitioner can
// do; a single row heavier than targetNNZ gets a panel to itself).
func panelBounds(m *Matrix, targetNNZ int) [][2]int {
	nnz := m.NNZ()
	if targetNNZ <= 0 || nnz == 0 || m.Rows <= 1 {
		return [][2]int{{0, m.Rows}}
	}
	p := (nnz + targetNNZ - 1) / targetNNZ
	if p > m.Rows {
		p = m.Rows
	}
	if p <= 1 {
		return [][2]int{{0, m.Rows}}
	}
	mean := float64(nnz) / float64(p)
	bounds := make([][2]int, 0, p)
	lo, cur := 0, 0
	for i := 0; i < m.Rows; i++ {
		rl := m.RowLen(i)
		// Close the panel before this row once it met its target — unless
		// it would leave fewer rows than panels still owed.
		if cur > 0 && float64(cur)+float64(rl)/2 > mean && len(bounds) < p-1 &&
			m.Rows-i >= p-1-len(bounds) {
			bounds = append(bounds, [2]int{lo, i})
			lo, cur = i, 0
		}
		cur += rl
	}
	return append(bounds, [2]int{lo, m.Rows})
}

// NewShardedPipeline splits m into nnz-balanced row panels of roughly
// targetNNZ nonzeros each and builds every panel's no-reorder plan (in
// parallel, through the process-wide plan cache). targetNNZ <= 0 or a
// matrix smaller than one panel yields a single-panel pipeline, which
// behaves exactly like an OnlinePipeline over m.
func NewShardedPipeline(m *Matrix, cfg Config, targetNNZ int) (*ShardedPipeline, error) {
	return NewShardedPipelineCtx(context.Background(), m, cfg, targetNNZ)
}

// NewShardedPipelineCtx is NewShardedPipeline with cooperative
// cancellation of the per-panel no-reorder builds: ctx governs
// construction only. A panel's reordered plan builds later, in the
// background, started by the first call the panel's reorder gate
// passes and bounded by cfg.PreprocessBudget alone.
func NewShardedPipelineCtx(ctx context.Context, m *Matrix, cfg Config, targetNNZ int) (*ShardedPipeline, error) {
	return newShardedPipeline(ctx, context.Background(), m, cfg, targetNNZ, nil)
}

// newShardedPipeline is NewShardedPipelineCtx with the panels' reordered
// builds run under bctx and traced into ring when set (the Server
// passes its lifecycle context and /debug/traces ring).
func newShardedPipeline(ctx, bctx context.Context, m *Matrix, cfg Config, targetNNZ int, ring *obs.TraceRing) (*ShardedPipeline, error) {
	bounds := panelBounds(m, targetNNZ)
	panels := make([]shardPanel, len(bounds))
	for i, b := range bounds {
		panels[i] = shardPanel{lo: b[0], hi: b[1], base: int(m.RowPtr[b[0]])}
	}
	s, err := buildPanels(ctx, m, panels, "preprocessing", func(w int, sub *Matrix) (*OnlinePipeline, error) {
		nr, err := NewPipelineNRCtx(ctx, sub, cfg)
		if err != nil {
			return nil, err
		}
		return newOnline(bctx, nr, cfg, ring, newReorderGate(sub, cfg)), nil
	})
	if err != nil {
		return nil, err
	}
	recordShardPanels(len(panels))
	return s, nil
}

// WaitPreprocessed blocks until no panel's reordered build is in flight
// — each finished (successfully or failing), or none was ever started —
// or ctx is cancelled, whose error it then returns.
func (s *ShardedPipeline) WaitPreprocessed(ctx context.Context) error {
	for i := range s.panels {
		if err := s.panels[i].pipe.WaitPreprocessed(ctx); err != nil {
			return err
		}
	}
	return nil
}

// anyPanel reports whether f holds for some panel's pipeline.
func (s *ShardedPipeline) anyPanel(f func(o *OnlinePipeline) bool) bool {
	for i := range s.panels {
		if f(s.panels[i].pipe) {
			return true
		}
	}
	return false
}

// cfg returns the Config the panels were built under.
func (s *ShardedPipeline) cfg() Config { return s.panels[0].pipe.cfg }

// plans lists every plan the panels serve from: each panel's
// no-reorder plan and, once built, its reordered plan.
func (s *ShardedPipeline) plans() []*Pipeline {
	var ps []*Pipeline
	for i := range s.panels {
		o := s.panels[i].pipe
		ps = append(ps, o.nr)
		if rr := o.rr.Load(); rr != nil {
			ps = append(ps, rr)
		}
	}
	return ps
}

// fingerprint names the base by a plan-cache key of the whole matrix
// under the Config of the plan panel 0 serves wide calls from now. For
// a single panel that is the served plan's own key.
func (s *ShardedPipeline) fingerprint() string {
	return plancache.Fingerprint(s.orig, s.panels[0].pipe.current().plan.Cfg)
}

// mispicks sums the panels' autotuner-feedback mispick counts.
func (s *ShardedPipeline) mispicks() int64 {
	var n int64
	for i := range s.panels {
		n += s.panels[i].pipe.Mispicked()
	}
	return n
}

// setSink routes every panel's decision events to es.
func (s *ShardedPipeline) setSink(es *eventSink) {
	for i := range s.panels {
		s.panels[i].pipe.sink.Store(es)
	}
}

// reskin re-skins the sharded pipeline for a matrix with the *same
// sparsity structure* but new nonzero values — the value-only mutation
// path of a live tenant. The panel bounds are inherited (the structure,
// and therefore the nnz balance, is unchanged), each panel's rebased
// RowPtr is shared with the old panel, and each panel re-skins its
// plans and carries its gate and trial decision over
// (OnlinePipeline.reskin): no plan-cache lookup, no LSH, clustering,
// or tiling.
func (s *ShardedPipeline) reskin(ctx context.Context, m *Matrix) (*ShardedPipeline, error) {
	return buildPanels(ctx, m, s.panels, "reskinning", func(w int, sub *Matrix) (*OnlinePipeline, error) {
		return s.panels[w].pipe.reskin(ctx, sub)
	})
}

// buildPanels builds m's row panels concurrently. Each panel's sub-CSR
// shares m's ColIdx/Val backing arrays, with the RowPtr of the panel's
// current pipeline when it has one and a rebased copy of m's
// otherwise; a single panel's sub-CSR is m itself. build turns the
// sub-CSR into the panel's pipeline.
func buildPanels(ctx context.Context, m *Matrix, panels []shardPanel, op string,
	build func(w int, sub *Matrix) (*OnlinePipeline, error)) (*ShardedPipeline, error) {
	np := len(panels)
	s := &ShardedPipeline{orig: m, panels: make([]shardPanel, np)}
	err := par.DoCtx(ctx, np, func(w int) error {
		pn := panels[w]
		sub := m
		if np > 1 {
			end := int(m.RowPtr[pn.hi])
			sub = &sparse.CSR{
				Rows:   pn.hi - pn.lo,
				Cols:   m.Cols,
				ColIdx: m.ColIdx[pn.base:end:end],
				Val:    m.Val[pn.base:end:end],
			}
			if pn.pipe != nil {
				sub.RowPtr = pn.pipe.Matrix().RowPtr
			} else {
				sub.RowPtr = make([]int32, sub.Rows+1)
				for i := range sub.RowPtr {
					sub.RowPtr[i] = m.RowPtr[pn.lo+i] - int32(pn.base)
				}
			}
		}
		pipe, err := build(w, sub)
		if err != nil {
			return fmt.Errorf("repro: %s panel %d (rows %d–%d): %w", op, w, pn.lo, pn.hi, err)
		}
		pn.pipe = pipe
		s.panels[w] = pn
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.views.New = func() any {
		return &shardViews{
			ys:   make([]dense.Matrix, np),
			outs: make([]sparse.CSR, np),
		}
	}
	return s, nil
}

// Panels returns the number of row panels.
func (s *ShardedPipeline) Panels() int { return len(s.panels) }

// PanelRange returns panel i's original row range [lo, hi).
func (s *ShardedPipeline) PanelRange(i int) (lo, hi int) {
	return s.panels[i].lo, s.panels[i].hi
}

// PanelKernel returns the SpMM kernel the autotuner chose for panel i's
// no-reorder plan, which every call below the panel's reorder gate
// runs — panels of one matrix may legitimately run different kernels.
func (s *ShardedPipeline) PanelKernel(i int) Kernel { return s.panels[i].pipe.nr.Kernel() }

// Matrix returns the original (unsharded, unreordered) matrix.
func (s *ShardedPipeline) Matrix() *Matrix { return s.orig }

// putViews drops the caller-operand references before pooling so a
// parked view can never keep a caller's Y or output matrix alive.
func (s *ShardedPipeline) putViews(v *shardViews) {
	for i := range v.ys {
		v.ys[i].Data = nil
		v.outs[i].Val = nil
	}
	s.views.Put(v)
}

// SpMMIntoCtx computes Y = S·X with every panel running concurrently,
// each writing its rows through a zero-copy row-range window into y —
// rows are independent in SpMM, so there is no merge step, and a
// failing or cancelled panel cannot corrupt another panel's rows (on
// error y's contents are unspecified, as with Pipeline). Cancellation
// is observed between kernel chunks inside every panel. Each panel
// serves the call as its OnlinePipeline does: below the panel's reorder
// gate on its no-reorder plan, above it through the panel's lazy build
// and trial.
func (s *ShardedPipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	return s.spmmInto(ctx, y, x, x.Cols)
}

// spmmInto is SpMMIntoCtx with the panels' reorder gates asked about
// width k rather than x.Cols (see OnlinePipeline.spmmInto).
func (s *ShardedPipeline) spmmInto(ctx context.Context, y *Dense, x *Dense, k int) error {
	if len(s.panels) == 1 {
		return s.panels[0].pipe.spmmInto(ctx, y, x, k)
	}
	if y.Rows != s.orig.Rows || y.Cols != x.Cols {
		return fmt.Errorf("repro: SpMMInto output is %dx%d, want %dx%d",
			y.Rows, y.Cols, s.orig.Rows, x.Cols)
	}
	v := s.views.Get().(*shardViews)
	defer s.putViews(v)
	return par.DoCtx(ctx, len(s.panels), func(w int) error {
		pn := s.panels[w]
		yv := &v.ys[w]
		yv.Rows, yv.Cols = pn.hi-pn.lo, y.Cols
		yv.Data = y.Data[pn.lo*y.Cols : pn.hi*y.Cols]
		return pn.pipe.spmmInto(ctx, yv, x, k)
	})
}

// SDDMMIntoCtx runs SDDMM panel-parallel: each panel computes its rows
// through a CSR view sharing the panel's structure arrays whose Val
// window is the corresponding segment of out.Val, and a dense view of
// the matching Y rows. Like SpMM, panel outputs are disjoint by
// construction. out's structure is checked once, here, against the
// whole matrix.
func (s *ShardedPipeline) SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error {
	if err := checkSDDMMOut(out, s.orig); err != nil {
		return err
	}
	return s.sddmmInto(ctx, out, x, y, x.Cols)
}

// sddmmInto is SDDMMIntoCtx for an out whose structure the caller has
// checked, with the panels' reorder gates asked about width k.
func (s *ShardedPipeline) sddmmInto(ctx context.Context, out *Matrix, x, y *Dense, k int) error {
	if len(s.panels) == 1 {
		return s.panels[0].pipe.sddmmInto(ctx, out, x, y, k)
	}
	if y.Rows != s.orig.Rows {
		return fmt.Errorf("repro: SDDMM y has %d rows, want %d", y.Rows, s.orig.Rows)
	}
	v := s.views.Get().(*shardViews)
	defer s.putViews(v)
	return par.DoCtx(ctx, len(s.panels), func(w int) error {
		pn := s.panels[w]
		sub := pn.pipe.Matrix()
		ov := &v.outs[w]
		ov.Rows, ov.Cols = sub.Rows, sub.Cols
		ov.RowPtr, ov.ColIdx = sub.RowPtr, sub.ColIdx
		ov.Val = out.Val[pn.base : pn.base+sub.NNZ()]
		yv := &v.ys[w]
		yv.Rows, yv.Cols = pn.hi-pn.lo, y.Cols
		yv.Data = y.Data[pn.lo*y.Cols : pn.hi*y.Cols]
		return pn.pipe.sddmmInto(ctx, ov, x, yv, k)
	})
}

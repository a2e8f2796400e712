package repro

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// ShardedPipeline splits a large matrix into nnz-balanced row panels at
// preprocessing time and serves each panel through its own Pipeline —
// the 1-D row-tiling decomposition (Gale et al.) lifted to the serving
// layer. Because SpMM rows are independent, a panel's output is exactly
// the corresponding row range of the unsharded output: "merging" the
// panels is not a reduction, each panel writes straight into a
// zero-copy row-range view of the caller's Y.
//
// What sharding buys over one big pipeline:
//
//   - Preprocessing parallelism and bounded working sets: LSH,
//     clustering, and tiling run per panel (concurrently), and each
//     panel's plan is cached independently in the process-wide plan
//     cache, so growing a matrix reuses the untouched panels' plans.
//   - Panel-local kernel choice: the autotuner sees each panel's
//     structure in isolation, so a matrix whose top rows are hub-heavy
//     and whose tail is uniform can run merge on one panel and
//     row-wise on another, instead of one compromise kernel.
//
// Panels are built without reordering, and their reordered plans are
// built only for widths that pass the reorder gate (gate.go), judged
// on the panel whose X footprint is largest (each panel runs on its own
// core and L2): the first such call builds every panel's reordered plan
// in the background while calls keep serving the no-reorder panels, and
// wide calls run the reordered panels once they land. Panels run no §4
// trial — each panel's plan autotunes its kernel — and a failed build
// leaves the no-reorder panels serving every width.
//
// A ShardedPipeline is safe for concurrent use. It implements the same
// one-primitive serving contract as every other pipeline type
// (SpMMIntoCtx, SDDMMIntoCtx), so the serving layer can treat them
// interchangeably.
type ShardedPipeline struct {
	orig   *Matrix
	panels []shardPanel

	// gate is judged on the panel that references the most columns; rr
	// builds the reordered panel plans, index-aligned with panels. The
	// build runs under bctx with the pipeline's Config, tracing into
	// ring when set.
	gate reorderGate
	rr   lazyBuild[[]*Pipeline]
	bctx context.Context
	cfg  Config
	ring *obs.TraceRing

	// views pools the per-call panel view structs (dense row-range
	// windows into Y, CSR value windows into SDDMM outputs) so serving
	// calls do not allocate per panel.
	views sync.Pool
}

// shardPanel is one row panel [lo, hi) of the original matrix. pipe
// executes the panel's sub-CSR without reordering; the sub-CSR shares
// ColIdx/Val backing arrays with the original matrix (only the rebased
// RowPtr is panel-owned).
type shardPanel struct {
	lo, hi int
	base   int // original RowPtr[lo]: offset of the panel's first nonzero
	pipe   *Pipeline
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
// behaves exactly like a plain Pipeline.
func NewShardedPipeline(m *Matrix, cfg Config, targetNNZ int) (*ShardedPipeline, error) {
	return NewShardedPipelineCtx(context.Background(), m, cfg, targetNNZ)
}

// NewShardedPipelineCtx is NewShardedPipeline with cooperative
// cancellation of the per-panel no-reorder builds: ctx governs
// construction only. The panels' reordered plans build later, in the
// background, started by the first call the reorder gate passes and
// bounded by cfg.PreprocessBudget alone.
func NewShardedPipelineCtx(ctx context.Context, m *Matrix, cfg Config, targetNNZ int) (*ShardedPipeline, error) {
	return newShardedPipeline(ctx, context.Background(), m, cfg, targetNNZ, nil)
}

// newShardedPipeline is NewShardedPipelineCtx with the reordered build's
// context bctx and trace ring given separately (the Server passes its
// lifecycle context and /debug/traces ring).
func newShardedPipeline(ctx, bctx context.Context, m *Matrix, cfg Config, targetNNZ int, ring *obs.TraceRing) (*ShardedPipeline, error) {
	bounds := panelBounds(m, targetNNZ)
	cols := make([]int, len(bounds))
	s, err := buildPanels(ctx, m, len(bounds), "preprocessing",
		func(w int) (shardPanel, []int32) {
			lo, hi := bounds[w][0], bounds[w][1]
			base := m.RowPtr[lo]
			rp := make([]int32, hi-lo+1)
			for i := range rp {
				rp[i] = m.RowPtr[lo+i] - base
			}
			return shardPanel{lo: lo, hi: hi, base: int(base)}, rp
		},
		func(w int, sub *Matrix) (*Pipeline, error) {
			cols[w] = referencedCols(sub)
			return NewPipelineNRCtx(ctx, sub, cfg)
		})
	if err != nil {
		return nil, err
	}
	s.gate = gateFor(slices.Max(cols), cfg)
	s.rr.init()
	s.bctx, s.cfg, s.ring = bctx, cfg, ring
	recordShardPanels(len(bounds))
	return s, nil
}

// startBuild starts building every panel's reordered plan, in parallel,
// unless that already started; width is the width of the call that
// asked for it.
func (s *ShardedPipeline) startBuild(width int) {
	if s.rr.started.Load() {
		return
	}
	s.rr.start(s.bctx, s.cfg.PreprocessBudget, s.ring, width,
		func(ctx context.Context) (*[]*Pipeline, error) {
			pipes := make([]*Pipeline, len(s.panels))
			err := par.DoCtx(ctx, len(pipes), func(w int) error {
				var err error
				pipes[w], err = NewPipelineCtx(ctx, s.panels[w].pipe.Matrix(), s.cfg)
				return err
			})
			return &pipes, err
		}, nil)
}

// wide returns the reordered panel plans a call of width k runs: nil
// below the gate, and nil until they are built (the first call the gate
// passes starts the build).
func (s *ShardedPipeline) wide(k int) []*Pipeline {
	if !s.gate.pass(k) {
		return nil
	}
	if rr := s.rr.Load(); rr != nil {
		return *rr
	}
	s.startBuild(k)
	return nil
}

// WaitPreprocessed blocks until no reordered panel build is in flight
// — it finished (successfully or failing), or none was ever started —
// or ctx is cancelled, whose error it then returns.
func (s *ShardedPipeline) WaitPreprocessed(ctx context.Context) error { return s.rr.wait(ctx) }

// reskin re-skins the sharded pipeline for a matrix with the *same
// sparsity structure* but new nonzero values — the value-only mutation
// path of a live sharded tenant. The panel bounds and the gate are
// inherited (the structure, and therefore the nnz balance, is
// unchanged), each panel's rebased RowPtr is shared with the old panel,
// and every panel plan — no-reorder and, once built, reordered — is
// re-skinned by one O(nnz) value walk (Pipeline.withValues): no
// plan-cache lookup, no LSH, clustering, or tiling. A reordered build
// still in flight is waited for first; a failed one stays failed.
func (s *ShardedPipeline) reskin(ctx context.Context, m *Matrix) (*ShardedPipeline, error) {
	if err := s.WaitPreprocessed(ctx); err != nil {
		return nil, err
	}
	n, err := buildPanels(ctx, m, len(s.panels), "reskinning",
		func(w int) (shardPanel, []int32) {
			pn := s.panels[w]
			return pn, pn.pipe.Matrix().RowPtr
		},
		func(w int, sub *Matrix) (*Pipeline, error) { return s.panels[w].pipe.withValues(sub) })
	if err != nil {
		return nil, err
	}
	n.gate = s.gate
	n.rr.init()
	n.bctx, n.cfg, n.ring = s.bctx, s.cfg, s.ring
	if d := s.rr.failed.Load(); d != nil {
		n.rr.fail(d)
	} else if old := s.rr.Load(); old != nil {
		pipes := make([]*Pipeline, len(*old))
		err := par.DoCtx(ctx, len(pipes), func(w int) error {
			var err error
			pipes[w], err = (*old)[w].withValues(n.panels[w].pipe.Matrix())
			return err
		})
		if err != nil {
			return nil, err
		}
		n.rr.set(&pipes)
	}
	return n, nil
}

// buildPanels builds np row panels of m concurrently. panel(w) returns
// panel w's row range and nonzero offset and its rebased RowPtr; build
// turns the panel's sub-CSR, which shares m's ColIdx/Val backing
// arrays, into the panel's pipeline.
func buildPanels(ctx context.Context, m *Matrix, np int, op string,
	panel func(w int) (shardPanel, []int32), build func(w int, sub *Matrix) (*Pipeline, error)) (*ShardedPipeline, error) {
	s := &ShardedPipeline{orig: m, panels: make([]shardPanel, np)}
	err := par.DoCtx(ctx, np, func(w int) error {
		pn, rp := panel(w)
		end := int(m.RowPtr[pn.hi])
		sub := &sparse.CSR{
			Rows:   pn.hi - pn.lo,
			Cols:   m.Cols,
			RowPtr: rp,
			ColIdx: m.ColIdx[pn.base:end:end],
			Val:    m.Val[pn.base:end:end],
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
// no-reorder plan, which every call below the reorder gate runs —
// panels of one matrix may legitimately run different kernels.
func (s *ShardedPipeline) PanelKernel(i int) Kernel { return s.panels[i].pipe.Kernel() }

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
// is observed between kernel chunks inside every panel. A call the
// reorder gate passes runs the reordered panels once they are built.
func (s *ShardedPipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	return s.spmmInto(ctx, y, x, x.Cols)
}

// spmmInto is SpMMIntoCtx with the reorder gate asked about width k
// rather than x.Cols (see OnlinePipeline.spmmInto).
func (s *ShardedPipeline) spmmInto(ctx context.Context, y *Dense, x *Dense, k int) error {
	if y.Rows != s.orig.Rows || y.Cols != x.Cols {
		return fmt.Errorf("repro: SpMMInto output is %dx%d, want %dx%d",
			y.Rows, y.Cols, s.orig.Rows, x.Cols)
	}
	rr := s.wide(k)
	v := s.views.Get().(*shardViews)
	defer s.putViews(v)
	return par.DoCtx(ctx, len(s.panels), func(w int) error {
		pn := s.panels[w]
		yv := &v.ys[w]
		yv.Rows, yv.Cols = pn.hi-pn.lo, y.Cols
		yv.Data = y.Data[pn.lo*y.Cols : pn.hi*y.Cols]
		if rr != nil {
			return rr[w].SpMMIntoCtx(ctx, yv, x)
		}
		return pn.pipe.SpMMIntoCtx(ctx, yv, x)
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
	return s.sddmmInto(ctx, out, x, y)
}

// sddmmInto is SDDMMIntoCtx for an out whose structure the caller has
// checked.
func (s *ShardedPipeline) sddmmInto(ctx context.Context, out *Matrix, x, y *Dense) error {
	if y.Rows != s.orig.Rows {
		return fmt.Errorf("repro: SDDMM y has %d rows, want %d", y.Rows, s.orig.Rows)
	}
	rr := s.wide(x.Cols)
	v := s.views.Get().(*shardViews)
	defer s.putViews(v)
	return par.DoCtx(ctx, len(s.panels), func(w int) error {
		pn := s.panels[w]
		pipe := pn.pipe
		if rr != nil {
			pipe = rr[w]
		}
		sub := pn.pipe.Matrix()
		ov := &v.outs[w]
		ov.Rows, ov.Cols = sub.Rows, sub.Cols
		ov.RowPtr, ov.ColIdx = sub.RowPtr, sub.ColIdx
		ov.Val = out.Val[pn.base : pn.base+sub.NNZ()]
		yv := &v.ys[w]
		yv.Rows, yv.Cols = pn.hi-pn.lo, y.Cols
		yv.Data = y.Data[pn.lo*y.Cols : pn.hi*y.Cols]
		return pipe.sddmmInto(ctx, ov, x, yv)
	})
}

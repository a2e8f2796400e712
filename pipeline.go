package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/faultinject"
	"repro/internal/gpusim"
	"repro/internal/integrity"
	"repro/internal/kernels"
	"repro/internal/reorder"
)

// Pipeline wraps a preprocessed matrix and executes SpMM/SDDMM on it.
// Reordering is purely an execution strategy: results are returned in the
// original row order and with the original sparsity structure, so a
// Pipeline is a drop-in replacement for the plain kernels.
//
// A Pipeline is immutable after construction and safe for concurrent
// use; the *Into variants additionally perform no heap allocations at
// steady state.
type Pipeline struct {
	orig *Matrix
	plan *Plan

	// hyb is the ELL+COO representation of the reordered matrix, built
	// at construction only when the plan's kernel choice is
	// KernelELLHybrid. It is built per pipeline, never stored in the
	// plan cache, so its values always match this pipeline's matrix; a
	// value re-skin (withValues) refills its values in place of a
	// rebuild.
	hyb *ellpack.Hybrid

	// dst is the kernels' row map: reordered row i of a product is
	// original row dst[i], so SpMM writes it straight to the caller's
	// row dst[i] and SDDMM reads Y row dst[i] and writes that row's
	// values. It is the plan's RowPerm, or nil when that is the identity
	// (the NR plan, and any plan that applied no round-1 permutation),
	// so the identity case pays no indirection and no operand or result
	// is permuted either way.
	dst []int32
}

// newPipeline finishes construction from a built plan: the kernel
// choice is materialised (the hybrid slab is converted now, off the
// serving path) and published to the kernel-choice counter.
func newPipeline(orig *Matrix, plan *Plan) (*Pipeline, error) {
	p := &Pipeline{orig: orig, plan: plan, dst: rowMap(plan.RowPerm)}
	if plan.Kernel == reorder.KernelELLHybrid {
		hyb, err := ellpack.FromCSRHybrid(plan.Reordered, 0)
		if err != nil {
			return nil, fmt.Errorf("repro: building hybrid representation: %w", err)
		}
		p.hyb = hyb
	}
	recordKernelChoice(plan.Kernel)
	return p, nil
}

// withValues re-skins p for m, a matrix with p's sparsity structure but
// new nonzero values: one O(nnz) walk regathers the plan's value arrays
// (reorder.Plan.WithValues) and, for a hybrid plan, refills the slab and
// spill values. Every structure array is shared with p; no plan-cache
// lookup, hashing or HYB rebuild runs. The new plan's Stages are zero
// except Permute, which holds the walk's time.
func (p *Pipeline) withValues(m *Matrix) (*Pipeline, error) {
	plan, err := p.plan.WithValues(m, p.plan.Cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("repro: re-skinning plan: %w", err)
	}
	np := &Pipeline{orig: m, plan: plan, dst: rowMap(plan.RowPerm)}
	if p.hyb != nil {
		t0 := time.Now()
		if np.hyb, err = p.hyb.WithValues(plan.Reordered); err != nil {
			return nil, fmt.Errorf("repro: re-skinning hybrid representation: %w", err)
		}
		plan.Stages.Permute += time.Since(t0)
		plan.Preprocess = plan.Stages.Permute
	}
	return np, nil
}

// rowMap returns perm as a kernel row map: perm itself, or nil when it
// is the identity.
func rowMap(perm []int32) []int32 {
	for i, r := range perm {
		if int(r) != i {
			return perm
		}
	}
	return nil
}

// NewPipeline preprocesses m (Fig 5 workflow: round-1 reordering, ASpT
// tiling, round-2 reordering of the leftover part, with the §4 skip
// heuristics) and returns an executable pipeline. m is not mutated and
// may be used concurrently.
//
// Construction goes through the process-wide plan cache: building a
// pipeline for a sparsity structure + configuration seen before skips
// LSH, clustering, and tiling and reuses the cached plan (values are
// regathered in O(nnz) if they differ). See SetPlanCacheCapacity.
func NewPipeline(m *Matrix, cfg Config) (*Pipeline, error) {
	return NewPipelineCtx(context.Background(), m, cfg)
}

// NewPipelineCtx is NewPipeline with cooperative cancellation: every
// preprocessing stage observes ctx between work units, so cancelling
// ctx aborts construction promptly with ctx's error. A cancelled or
// failed build is never stored in the plan cache.
func NewPipelineCtx(ctx context.Context, m *Matrix, cfg Config) (*Pipeline, error) {
	plan, err := planCache.Load().PreprocessCtx(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	return newPipeline(m, plan)
}

// NewPipelineNR builds a no-reordering (plain ASpT) pipeline — the
// ASpT-NR baseline. Cached like NewPipeline, under a distinct key.
func NewPipelineNR(m *Matrix, cfg Config) (*Pipeline, error) {
	return NewPipelineNRCtx(context.Background(), m, cfg)
}

// NewPipelineNRCtx is NewPipelineNR with cooperative cancellation (see
// NewPipelineCtx).
func NewPipelineNRCtx(ctx context.Context, m *Matrix, cfg Config) (*Pipeline, error) {
	plan, err := planCache.Load().PreprocessNRCtx(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	return newPipeline(m, plan)
}

// Plan exposes the underlying preprocessing plan (metrics, permutations,
// tiled representation).
func (p *Pipeline) Plan() *Plan { return p.plan }

// PlanStages returns the per-stage wall-clock breakdown of the
// preprocessing that produced this pipeline's plan. A cache-hit build
// reports zero for the skipped stages (only the value regather, if
// any, shows up under Permute).
func (p *Pipeline) PlanStages() StageTimings { return p.plan.Stages }

// Matrix returns the original (unreordered) matrix.
func (p *Pipeline) Matrix() *Matrix { return p.orig }

// Kernel returns the SpMM execution strategy this pipeline runs —
// either the Config override or the per-matrix autotuner's choice (see
// reorder.ChooseKernel). SDDMM runs the row-wise kernel over the
// reordered matrix whatever the choice: each nonzero is its own dot, so
// no SpMM strategy changes its arithmetic.
func (p *Pipeline) Kernel() Kernel { return p.plan.Kernel }

// SpMM computes Y = S·X using the tiled, reordered execution and returns
// Y in the original row order. The output comes from the process-wide
// dense scratch pool (it is fully overwritten before returning), so a
// serving loop that hands results back with PutDense when done recycles
// them instead of allocating per call.
func (p *Pipeline) SpMM(x *Dense) (*Dense, error) {
	y := dense.Get(p.orig.Rows, x.Cols)
	if err := p.SpMMInto(y, x); err != nil {
		dense.Put(y)
		return nil, err
	}
	return y, nil
}

// SpMMInto computes Y = S·X into the caller-provided y
// (S.Rows × X.Cols), overwriting its contents; rows come back in the
// original order. The kernel writes each reordered row straight to its
// original row of y, so a steady-state call uses no scratch and
// performs no heap allocations. y must not share storage with x: such
// a call returns an error.
func (p *Pipeline) SpMMInto(y *Dense, x *Dense) error {
	return p.SpMMIntoCtx(context.Background(), y, x)
}

// fireCorruptPlan is the "integrity.corrupt.plan" fault site: when a
// test arms it with faultinject.CorruptAt, it flips one value in every
// executable slab derived from the plan — the reordered CSR, the ASpT
// tile and leftover arrays, and the ELL/HYB slab — so whichever kernel
// the plan selected serves a plausible-but-wrong number. The flips are
// persistent (exactly like a real corrupted plan build); only eviction
// and a rebuild heal them. Any hook error other than ErrCorrupt (e.g.
// the generic chaos soak arming ErrorAt at every site) is a no-op.
// Callers must not run this concurrently with other requests on the
// same pipeline — the integrity soak serves sequentially while armed.
func (p *Pipeline) fireCorruptPlan() {
	if !errors.Is(faultinject.Fire("integrity.corrupt.plan"), faultinject.ErrCorrupt) {
		return
	}
	hit := false
	flip := func(v []float32) {
		if len(v) > 0 {
			i := len(v) / 2
			v[i] = v[i]*2 + 1
			hit = true
		}
	}
	if p.plan.Reordered != nil && p.plan.Reordered != p.orig {
		flip(p.plan.Reordered.Val)
	}
	if t := p.plan.Tiled; t != nil {
		flip(t.TileVal)
		if t.Rest != nil && t.Rest != p.orig {
			flip(t.Rest.Val)
		}
	}
	if h := p.hyb; h != nil {
		// Flip a real (non-padding) ELL slot: padded tails are never
		// read by the kernel, so a flip there would be undetectable. The
		// slab is slot-major (slot s of row r at s*Rows+r), so row r's
		// first slot is index r.
		flipped := false
		for r := 0; r < h.ELL.Rows && !flipped; r++ {
			if h.ELL.RowLen[r] > 0 {
				h.ELL.Vals[r] = h.ELL.Vals[r]*2 + 1
				flipped, hit = true, true
			}
		}
		if !flipped && len(h.Spill) > 0 {
			h.Spill[0].Val = h.Spill[0].Val*2 + 1
			hit = true
		}
	}
	if hit {
		integrity.CorruptionInjected()
	}
}

// SpMMIntoCtx is SpMMInto with cooperative cancellation between kernel
// chunks and panic isolation. On error y's contents are unspecified.
func (p *Pipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	if y.Rows != p.orig.Rows || y.Cols != x.Cols {
		return fmt.Errorf("repro: SpMMInto output is %dx%d, want %dx%d",
			y.Rows, y.Cols, p.orig.Rows, x.Cols)
	}
	if dense.Overlap(y, x) {
		return errors.New("repro: SpMMInto output shares storage with its operand")
	}
	p.fireCorruptPlan()
	// Execute in reordered row space with the plan's tuned kernel; row i
	// of the result lands in y's row p.dst[i]. Every variant honours the
	// same contract: cancellation between chunks, panic isolation, zero
	// steady-state allocations.
	switch p.plan.Kernel {
	case reorder.KernelRowWise:
		return kernels.SpMMRowWiseIntoRowsCtx(ctx, y, p.dst, p.plan.Reordered, x)
	case reorder.KernelMerge:
		return kernels.SpMMMergeIntoRowsCtx(ctx, y, p.dst, p.plan.Reordered, x)
	case reorder.KernelELLHybrid:
		if p.hyb != nil {
			return kernels.SpMMHybridIntoRowsCtx(ctx, y, p.dst, p.hyb, x)
		}
		// A hand-assembled Pipeline without the slab (zero value plus
		// field poking) still computes, via the tiled fallback.
		fallthrough
	default:
		return kernels.SpMMASpTIntoRowsCtx(ctx, y, p.dst, p.plan.Tiled, x)
	}
}

// SDDMM computes O = S ⊙ (Y·Xᵀ) with the reordered execution; O has
// the original matrix's structure.
func (p *Pipeline) SDDMM(x, y *Dense) (*Matrix, error) {
	out := p.orig.Clone()
	if err := p.SDDMMInto(out, x, y); err != nil {
		return nil, err
	}
	return out, nil
}

// SDDMMInto computes O = S ⊙ (Y·Xᵀ) into the caller-provided out, which
// must have the original matrix's sparsity structure (e.g. a Clone of
// it, a previous SDDMM result, or the matrix itself for in-place value
// rewriting). Only out.Val is written. Steady-state calls perform no
// heap allocations.
func (p *Pipeline) SDDMMInto(out *Matrix, x, y *Dense) error {
	return p.SDDMMIntoCtx(context.Background(), out, x, y)
}

// SDDMMIntoCtx is SDDMMInto with cooperative cancellation between
// kernel chunks and panic isolation. On error out.Val's contents are
// unspecified. The kernel visits the reordered rows in order through
// the plan's row map: row i reads Y row dst[i] and writes out's row
// dst[i], whose values a row permutation keeps in the same column
// order.
func (p *Pipeline) SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error {
	p.fireCorruptPlan()
	if out != p.orig && !out.SameStructure(p.orig) {
		return fmt.Errorf("repro: SDDMMInto output structure differs from the matrix (%s vs %s)",
			out, p.orig)
	}
	return kernels.SDDMMRowWiseIntoRowsCtx(ctx, out, p.dst, p.plan.Reordered, x, y)
}

// EstimateSpMM simulates this pipeline's SpMM on the given device for
// dense width k and returns the traffic/time report.
func (p *Pipeline) EstimateSpMM(dev Device, k int) (*SimStats, error) {
	return gpusim.SpMMASpT(dev, p.plan.Tiled, p.plan.RestOrder, k)
}

// EstimateSDDMM simulates this pipeline's SDDMM.
func (p *Pipeline) EstimateSDDMM(dev Device, k int) (*SimStats, error) {
	return gpusim.SDDMMASpT(dev, p.plan.Tiled, p.plan.RestOrder, k)
}

// EstimateSpMMRowWise simulates the unpreprocessed row-wise baseline
// (cuSPARSE-like) for comparison.
func EstimateSpMMRowWise(dev Device, s *Matrix, k int) (*SimStats, error) {
	return gpusim.SpMMRowWise(dev, s, k, nil)
}

// EstimateSDDMMRowWise simulates the unpreprocessed row-wise SDDMM.
func EstimateSDDMMRowWise(dev Device, s *Matrix, k int) (*SimStats, error) {
	return gpusim.SDDMMRowWise(dev, s, k, nil)
}

// SavePlan serialises the pipeline's preprocessing decisions (the
// permutations of both rounds) so a later process can re-apply them
// without re-running LSH and clustering — the paper's §5.4 offline
// scenario.
func (p *Pipeline) SavePlan(w io.Writer) error { return reorder.WritePlan(w, p.plan) }

// NewPipelineFromSavedPlan rebuilds an executable pipeline for m from a
// plan previously written by SavePlan. Tiling is recomputed (O(nnz));
// LSH and clustering are skipped. The saved plan must have been computed
// for a matrix with the same number of rows.
func NewPipelineFromSavedPlan(m *Matrix, cfg Config, r io.Reader) (*Pipeline, error) {
	sp, err := reorder.ReadPlan(r)
	if err != nil {
		return nil, err
	}
	plan, err := sp.Apply(m, cfg)
	if err != nil {
		return nil, err
	}
	return newPipeline(m, plan)
}

// SavePlanFile writes the plan to path atomically and durably (temp
// file + rename + fsync): a crash mid-write, or a concurrent writer to
// the same path, leaves either the previous file or the complete new
// one — never a torn plan.
func (p *Pipeline) SavePlanFile(path string) error { return reorder.WritePlanFile(path, p.plan) }

// NewPipelineFromPlanFile is NewPipelineFromSavedPlan reading from a
// file written by SavePlanFile. A truncated or corrupted file fails
// with ErrPlanFormat (the format carries a CRC-checksummed footer) and
// is never applied; callers fall back to preprocessing from scratch.
func NewPipelineFromPlanFile(m *Matrix, cfg Config, path string) (*Pipeline, error) {
	sp, err := reorder.ReadPlanFile(path)
	if err != nil {
		return nil, err
	}
	plan, err := sp.Apply(m, cfg)
	if err != nil {
		return nil, err
	}
	return newPipeline(m, plan)
}

// ErrPlanFormat is wrapped by every plan-file deserialization failure:
// bad magic or version, truncation, checksum mismatch, or a stored
// order that is not a permutation. Test with errors.Is.
var ErrPlanFormat = reorder.ErrPlanFormat

// EstimateSpMMASpTPlanNoRound2 simulates a plan's SpMM with the leftover
// sparse part processed in natural order, ignoring the plan's round-2
// RestOrder — isolating the contribution of round 1 for the rounds
// ablation (DESIGN.md §4).
func EstimateSpMMASpTPlanNoRound2(dev Device, plan *Plan, k int) (*SimStats, error) {
	return gpusim.SpMMASpT(dev, plan.Tiled, nil, k)
}

// AutoTune implements the paper's §4 trial-and-error strategy: build both
// the reordered and the no-reordering pipeline, estimate both on the
// device at width k, and return the faster one (ties favour NR, which has
// no preprocessing cost).
func AutoTune(m *Matrix, cfg Config, dev Device, k int) (*Pipeline, error) {
	rr, err := NewPipeline(m, cfg)
	if err != nil {
		return nil, err
	}
	nr, err := NewPipelineNR(m, cfg)
	if err != nil {
		return nil, err
	}
	srr, err := rr.EstimateSpMM(dev, k)
	if err != nil {
		return nil, err
	}
	snr, err := nr.EstimateSpMM(dev, k)
	if err != nil {
		return nil, err
	}
	if srr.Time < snr.Time {
		return rr, nil
	}
	return nr, nil
}

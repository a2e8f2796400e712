package reorder

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aspt"
	"repro/internal/lsh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Config drives the two-round workflow of Fig 5.
type Config struct {
	// LSH parameterises candidate-pair generation (paper: siglen=128,
	// bsize=2).
	LSH lsh.Params
	// ThresholdSize is the cluster emission size (paper: 256).
	ThresholdSize int
	// ASpT parameterises the tiling applied after round 1.
	ASpT aspt.Params
	// DenseRatioSkip: if the dense-tile nonzero ratio of the *original*
	// matrix is above this, round 1 is skipped (paper: 0.10 — "for all
	// matrices that show slowdown after row-reordering, the origin
	// ratios of nonzeros in the dense tiles are greater than 10%").
	DenseRatioSkip float64
	// AvgSimSkip: if the average consecutive-row Jaccard similarity of
	// the leftover sparse part is above this, round 2 is skipped
	// (paper: 0.1).
	AvgSimSkip float64
	// SimSamplePairs caps the number of consecutive pairs sampled when
	// evaluating AvgSimSkip (0 = exact).
	SimSamplePairs int
	// MinRestRatio skips round 2 when the leftover sparse part holds
	// less than this fraction of the nonzeros — with (almost) everything
	// in dense tiles there is nothing for the second round to improve.
	MinRestRatio float64
	// PanelAlign bin-packs emitted clusters into ASpT panel-sized bins
	// so cluster boundaries coincide with panel boundaries where
	// possible (extension; see PackGroups and
	// BenchmarkAblationPanelAlign). Default false = paper-faithful
	// concatenation.
	PanelAlign bool
	// EmitMergeOrder emits rows of each cluster in join order instead of
	// the paper's ascending-index order — an extension that preserves
	// intra-cluster adjacency when weak candidate pairs chain latent
	// clusters into threshold-sized blobs (see ClusterOrdered and
	// BenchmarkAblationEmitOrder). Default false = paper-faithful.
	EmitMergeOrder bool
	// Force disables both skip heuristics, always applying both rounds
	// (used by the Fig 9 "what happens if you always reorder" sweep).
	Force bool
	// Disable turns the pipeline into plain ASpT-NR: no reordering at
	// all, only tiling.
	Disable bool
	// Workers bounds the parallelism of the whole preprocessing engine
	// (tiling, row permutation, similarity scans; LSH inherits it when
	// LSH.Workers is 0, and tiling when ASpT.Workers is 0). 0 means
	// runtime.GOMAXPROCS(0). The produced Plan is bit-identical for
	// every value — Workers only changes how fast it is computed.
	Workers int
	// PreprocessBudget bounds the wall-clock time the *background*
	// reordered-plan build of an online pipeline may spend before the
	// pipeline permanently degrades to the no-reorder plan (see
	// repro.NewOnlinePipelineCtx). 0 or negative means no budget. It
	// does not affect Preprocess itself and — like Workers — never
	// changes what a successful build produces, so plan-cache
	// fingerprints ignore it.
	PreprocessBudget time.Duration
	// Epoch is the structural epoch of a live (mutable) matrix: each
	// structural mutation of a served matrix bumps it before the fused
	// matrix is re-preprocessed. It is semantic — unlike Workers or
	// PreprocessBudget it is NOT normalised out of plan-cache
	// fingerprints, and it is stored in the v1 plan-file flag bits
	// (see planFlag* in serialize.go) so a stale snapshot can never be
	// re-skinned onto mutated structure. 0 for immutable pipelines.
	Epoch uint32
}

// withWorkers propagates the pipeline-wide Workers bound into the
// nested stage configurations that did not set their own.
func (cfg Config) withWorkers() Config {
	if cfg.LSH.Workers == 0 {
		cfg.LSH.Workers = cfg.Workers
	}
	if cfg.ASpT.Workers == 0 {
		cfg.ASpT.Workers = cfg.Workers
	}
	return cfg
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		LSH:            lsh.DefaultParams(),
		ThresholdSize:  DefaultThresholdSize,
		ASpT:           aspt.DefaultParams(),
		DenseRatioSkip: 0.10,
		AvgSimSkip:     0.1,
		SimSamplePairs: 1 << 16,
		MinRestRatio:   0.05,
	}
}

// Plan is the output of preprocessing: everything a kernel (native or
// simulated) needs to execute SpMM/SDDMM on the transformed matrix, plus
// the metrics the paper's figures are built from.
type Plan struct {
	Cfg Config

	// RowPerm maps new row position -> original row (identity when round
	// 1 was skipped). The tiled matrix's row i is original row
	// RowPerm[i].
	RowPerm []int32
	// InvRowPerm maps original row -> new position.
	InvRowPerm []int32
	// Reordered is the row-reordered matrix (== the input when round 1
	// was skipped; always a distinct value, never aliasing the input).
	Reordered *sparse.CSR
	// Tiled is the ASpT representation of Reordered.
	Tiled *aspt.Matrix
	// RestOrder is the order in which leftover-part rows are processed
	// by the row-wise kernel (a permutation of [0, Rows) in *reordered*
	// row space; identity when round 2 was skipped).
	RestOrder []int32

	Round1Applied bool
	Round2Applied bool

	// Kernel is the SpMM execution strategy selected for this plan: the
	// autotuner's choice from the reordered matrix's structure, or the
	// row-wise or merge choice a plan snapshot stored. Always
	// KernelRowWise or KernelMerge in a Plan returned by Preprocess or
	// SavedPlan.Apply.
	Kernel Kernel

	// Features are the structural signals the kernel decision was made
	// on, kept for decision observability: /debug/explain replays
	// ChooseKernel(Features) against Kernel, and the autotuner feedback
	// loop compares realized throughput to the structural prediction.
	Features KernelFeatures

	// Fig 9 metrics. "Before" values describe plain ASpT-NR on the
	// original matrix; "After" the final plan.
	DenseRatioBefore float64
	DenseRatioAfter  float64
	AvgSimBefore     float64
	AvgSimAfter      float64

	// Preprocess is the wall-clock preprocessing time (LSH + clustering
	// + tiling, both rounds), the quantity of Fig 12 and Tables 3-4.
	Preprocess time.Duration

	// Stages breaks Preprocess down by pipeline stage (accumulated over
	// both rounds), the data behind the amortization analysis: it shows
	// where preprocessing time goes and which stages a plan-cache hit
	// avoids entirely.
	Stages StageTimings

	Round1Stats ClusterStats
	Round2Stats ClusterStats
}

// StageTimings is the per-stage wall-clock breakdown of Preprocess.
// Signatures/Banding/Scoring are the paper's three LSH cost-model terms;
// Clustering is Alg 3 (plus panel packing when enabled); Tiling covers
// every aspt.Build; Permute covers row-permutation application; and
// Heuristics the §4 skip-decision similarity scans.
type StageTimings struct {
	Signatures time.Duration
	Banding    time.Duration
	Scoring    time.Duration
	Clustering time.Duration
	Tiling     time.Duration
	Permute    time.Duration
	Heuristics time.Duration
}

// Total sums all stage durations (Preprocess minus untracked glue).
func (s StageTimings) Total() time.Duration {
	return s.Signatures + s.Banding + s.Scoring + s.Clustering + s.Tiling + s.Permute + s.Heuristics
}

// String renders the breakdown in stage order.
func (s StageTimings) String() string {
	return fmt.Sprintf("sig=%v band=%v score=%v cluster=%v tile=%v permute=%v heur=%v",
		s.Signatures.Round(time.Microsecond), s.Banding.Round(time.Microsecond),
		s.Scoring.Round(time.Microsecond), s.Clustering.Round(time.Microsecond),
		s.Tiling.Round(time.Microsecond), s.Permute.Round(time.Microsecond),
		s.Heuristics.Round(time.Microsecond))
}

func (s *StageTimings) addLSH(t lsh.StageTimings) {
	s.Signatures += t.Signatures
	s.Banding += t.Banding
	s.Scoring += t.Scoring
}

// DeltaDenseRatio is Fig 9's x-axis: the change in dense-tile nonzero
// ratio caused by reordering.
func (p *Plan) DeltaDenseRatio() float64 { return p.DenseRatioAfter - p.DenseRatioBefore }

// DeltaAvgSim is Fig 9's y-axis: the change in average consecutive-row
// similarity of the sparse leftover part.
func (p *Plan) DeltaAvgSim() float64 { return p.AvgSimAfter - p.AvgSimBefore }

// NeedsReordering reports whether the §4 heuristics would apply at least
// one round to this matrix — the criterion that selects the paper's 416
// evaluation matrices.
func (p *Plan) NeedsReordering() bool { return p.Round1Applied || p.Round2Applied }

// Describe renders a human-readable plan summary (used by the CLIs).
func (p *Plan) Describe() string {
	return fmt.Sprintf(
		"round1=%v round2=%v kernel=%v preprocess=%v\n"+
			"  dense-tile ratio %.3f -> %.3f (Δ%+.3f)\n"+
			"  rest avg similarity %.3f -> %.3f (Δ%+.3f)\n"+
			"  round1: %d candidate pairs, %d merges; round2: %d pairs, %d merges",
		p.Round1Applied, p.Round2Applied, p.Kernel, p.Preprocess.Round(time.Millisecond),
		p.DenseRatioBefore, p.DenseRatioAfter, p.DeltaDenseRatio(),
		p.AvgSimBefore, p.AvgSimAfter, p.DeltaAvgSim(),
		p.Round1Stats.CandidatePairs, p.Round1Stats.Merges,
		p.Round2Stats.CandidatePairs, p.Round2Stats.Merges)
}

// reorderWithConfig runs one reordering round under the full Config —
// LSH, clustering with the configured emission order, and (optionally)
// panel-aligned packing of the emitted clusters — accumulating the
// stage breakdown into st.
func reorderWithConfig(ctx context.Context, m *sparse.CSR, cfg Config, st *StageTimings) ([]int32, ClusterStats, error) {
	pairs, lt, err := lsh.CandidatePairsTimedCtx(ctx, m, cfg.LSH)
	if err != nil {
		return nil, ClusterStats{}, err
	}
	st.addLSH(lt)
	t0 := time.Now()
	defer func() { st.Clustering += time.Since(t0) }()
	if !cfg.PanelAlign {
		return ClusterOrderedCtx(ctx, m, pairs, cfg.ThresholdSize, cfg.EmitMergeOrder)
	}
	groups, stats, err := ClusterGroupsCtx(ctx, m, pairs, cfg.ThresholdSize, cfg.EmitMergeOrder)
	if err != nil {
		return nil, stats, err
	}
	order := PackGroups(groups, cfg.ASpT.PanelSize)
	if !sparse.IsPermutation(order, m.Rows) {
		return nil, stats, fmt.Errorf("reorder: panel packing produced a non-permutation (internal error)")
	}
	return order, stats, nil
}

// buildTiled tiles a matrix with the plan's ASpT parameters.
func buildTiled(m *sparse.CSR, cfg Config) (*aspt.Matrix, error) {
	return aspt.Build(m, cfg.ASpT)
}

// Preprocess runs the full Fig 5 workflow on m and returns the Plan.
// The input matrix is never mutated. Every stage runs on up to
// cfg.Workers goroutines; the Plan is bit-identical for every worker
// count.
func Preprocess(m *sparse.CSR, cfg Config) (*Plan, error) {
	return PreprocessCtx(context.Background(), m, cfg)
}

// PreprocessCtx is Preprocess with cooperative cancellation and panic
// isolation: every parallel stage (LSH, clustering, tiling, permutation,
// similarity scans) observes ctx between work units and converts worker
// panics into a *par.PanicError returned from this call. A cancelled
// build returns ctx's error with no partial Plan.
func PreprocessCtx(ctx context.Context, m *sparse.CSR, cfg Config) (*Plan, error) {
	if err := sparse.Validate(m, sparse.FiniteOnly); err != nil {
		return nil, fmt.Errorf("reorder: input: %w", err)
	}
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	p := &Plan{Cfg: cfg}
	cfg = cfg.withWorkers()
	st := &p.Stages

	// Baseline tiling of the original matrix: needed both for the
	// round-1 heuristic and for the Before metrics.
	t0 := time.Now()
	baseTiled, err := aspt.BuildCtx(ctx, m, cfg.ASpT)
	if err != nil {
		return nil, err
	}
	st.Tiling += time.Since(t0)
	p.DenseRatioBefore = baseTiled.DenseRatio()
	t0 = time.Now()
	p.AvgSimBefore, err = sparse.AvgConsecutiveSimilarityCtx(ctx, baseTiled.Rest, cfg.SimSamplePairs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	st.Heuristics += time.Since(t0)

	// Round 1: reorder the whole matrix to enlarge the dense tiles.
	doRound1 := !cfg.Disable && (cfg.Force || p.DenseRatioBefore <= cfg.DenseRatioSkip)
	if doRound1 {
		perm, stats, err := reorderWithConfig(ctx, m, cfg, st)
		if err != nil {
			return nil, err
		}
		p.RowPerm = perm
		p.Round1Stats = stats
		p.Round1Applied = true
		t0 = time.Now()
		p.Reordered, err = sparse.PermuteRowsCtx(ctx, m, perm, cfg.Workers)
		if err != nil {
			return nil, err
		}
		st.Permute += time.Since(t0)
		t0 = time.Now()
		p.Tiled, err = aspt.BuildCtx(ctx, p.Reordered, cfg.ASpT)
		if err != nil {
			return nil, err
		}
		st.Tiling += time.Since(t0)
	} else {
		p.RowPerm = sparse.IdentityPermutation(m.Rows)
		p.Reordered = m.Clone()
		p.Tiled = baseTiled
		// Retarget the tiling at the clone so the Plan never aliases the
		// caller's matrix.
		p.Tiled.Src = p.Reordered
		p.Tiled.Rest.Rows = p.Reordered.Rows
	}
	p.InvRowPerm = sparse.InversePermutation(p.RowPerm)
	p.DenseRatioAfter = p.Tiled.DenseRatio()

	// Round 2: reorder the processing order of the leftover sparse part.
	t0 = time.Now()
	restSim, err := sparse.AvgConsecutiveSimilarityCtx(ctx, p.Tiled.Rest, cfg.SimSamplePairs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	st.Heuristics += time.Since(t0)
	restRatio := 1.0
	if m.NNZ() > 0 {
		restRatio = float64(p.Tiled.Rest.NNZ()) / float64(m.NNZ())
	}
	doRound2 := !cfg.Disable &&
		(cfg.Force || (restSim <= cfg.AvgSimSkip && restRatio >= cfg.MinRestRatio))
	if doRound2 {
		perm, stats, err := reorderWithConfig(ctx, p.Tiled.Rest, cfg, st)
		if err != nil {
			return nil, err
		}
		p.RestOrder = perm
		p.Round2Stats = stats
		p.Round2Applied = true
		t0 = time.Now()
		restPerm, err := sparse.PermuteRowsCtx(ctx, p.Tiled.Rest, perm, cfg.Workers)
		if err != nil {
			return nil, err
		}
		st.Permute += time.Since(t0)
		t0 = time.Now()
		p.AvgSimAfter, err = sparse.AvgConsecutiveSimilarityCtx(ctx, restPerm, cfg.SimSamplePairs, cfg.Workers)
		if err != nil {
			return nil, err
		}
		st.Heuristics += time.Since(t0)
	} else {
		p.RestOrder = sparse.IdentityPermutation(m.Rows)
		p.AvgSimAfter = restSim
	}

	p.Kernel = resolveKernel(p)
	p.Preprocess = time.Since(start)
	recordBuild(p, start)
	traceStages(obs.TraceFrom(ctx), p.Stages, start)
	return p, nil
}

// PreprocessNR returns the no-reordering plan (plain ASpT-NR), the
// baseline the paper compares against.
func PreprocessNR(m *sparse.CSR, cfg Config) (*Plan, error) {
	cfg.Disable = true
	return Preprocess(m, cfg)
}

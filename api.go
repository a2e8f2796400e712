package repro

import (
	"context"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/dense"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/par"
	"repro/internal/plancache"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// ErrInvalidMatrix is wrapped by every input-validation failure of this
// package's constructors and pipelines: broken CSR invariants
// (non-monotone RowPtr, out-of-range or unsorted column indices),
// dimensions or nonzero counts that overflow the int32 index space, and
// non-finite (NaN/Inf) values. Test with errors.Is.
var ErrInvalidMatrix = sparse.ErrInvalid

// PanicError is the typed error a recovered worker panic surfaces as:
// any parallel stage (preprocessing or kernel execution) that panics
// reports a *PanicError — carrying the panic value and the panicking
// goroutine's stack — instead of crashing the process. Test with
// errors.As.
type PanicError = par.PanicError

// Matrix is a sparse matrix in CSR form (alias of the internal type so
// all structural helpers are available on it).
type Matrix = sparse.CSR

// Dense is a row-major dense matrix.
type Dense = dense.Matrix

// Config is the preprocessing configuration: LSH parameters, clustering
// threshold, ASpT tiling parameters, and the §4 skip heuristics.
type Config = reorder.Config

// Plan is the result of preprocessing a matrix.
type Plan = reorder.Plan

// Kernel identifies the SpMM execution strategy of a plan. The zero
// value KernelAuto asks the per-matrix autotuner to choose from the
// matrix's structural features (skew, hub rows, dense-tile ratio); any
// other value forces that kernel via Config.Kernel.
type Kernel = reorder.Kernel

// KernelFeatures are the structural signals the per-matrix autotuner
// decided a plan's kernel on (Plan.Features), surfaced through
// Server.Explain so a kernel choice can be replayed and audited.
type KernelFeatures = reorder.KernelFeatures

// BatchOp is one Y = S·X operand pair of a batched SpMM pass (one per
// request in a Server coalescing batch): the X operands of a batch
// are column-stacked into one pooled scratch matrix, the kernel runs
// once at the combined width, and each op's columns are scattered back
// into its Y.
type BatchOp = kernels.BatchOp

// Kernel values for Config.Kernel and Pipeline.Kernel.
const (
	KernelAuto      = reorder.KernelAuto
	KernelRowWise   = reorder.KernelRowWise
	KernelMerge     = reorder.KernelMerge
	KernelELLHybrid = reorder.KernelELLHybrid
	KernelASpT      = reorder.KernelASpT
)

// ParseKernel maps a kernel name ("auto", "rowwise", "merge",
// "ellhybrid", "aspt") to its Kernel value.
func ParseKernel(s string) (Kernel, error) { return reorder.ParseKernel(s) }

// StageTimings is the per-stage wall-clock breakdown of preprocessing
// (Plan.Stages), surfaced through Pipeline.PlanStages and
// OnlinePipeline.PlanStages.
type StageTimings = reorder.StageTimings

// LSHParams configures the MinHash candidate-pair generation.
type LSHParams = lsh.Params

// Device describes a simulated GPU.
type Device = gpusim.Config

// SimStats is the traffic/time report of one simulated kernel.
type SimStats = gpusim.Stats

// DefaultConfig returns the paper's preprocessing configuration
// (siglen=128, bsize=2, threshold_size=256, dense-ratio skip 10%,
// avg-similarity skip 0.1).
func DefaultConfig() Config { return reorder.DefaultConfig() }

// P100 returns the simulated device matching the paper's evaluation
// platform.
func P100() Device { return gpusim.P100() }

// V100 returns a Volta-generation simulated device for cross-device
// sensitivity studies.
func V100() Device { return gpusim.V100() }

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *Dense { return dense.New(rows, cols) }

// NewRandomDense returns a seeded random dense matrix with entries in
// [-1, 1).
func NewRandomDense(rows, cols int, seed int64) *Dense { return dense.NewRandom(rows, cols, seed) }

// FromRows builds a CSR matrix from per-row column/value lists (vals may
// be nil for an all-ones pattern matrix).
func FromRows(rows, cols int, colIdx [][]int32, vals [][]float32) (*Matrix, error) {
	return sparse.FromRows(rows, cols, colIdx, vals)
}

// ReadMatrixMarket parses a Matrix Market stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMTX(r) }

// ReadMatrixMarketFile reads a Matrix Market file.
func ReadMatrixMarketFile(path string) (*Matrix, error) { return sparse.ReadMTXFile(path) }

// WriteMatrixMarket writes m as Matrix Market.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return sparse.WriteMTX(w, m) }

// SpMM computes Y = S·X row-wise without any preprocessing (the baseline
// of Alg 1).
func SpMM(s *Matrix, x *Dense) (*Dense, error) { return kernels.SpMMRowWise(s, x) }

// SpMMInto computes Y = S·X row-wise into the caller-provided y
// (S.Rows × X.Cols), overwriting its contents. Steady-state calls
// perform no heap allocations; combine with GetDense/PutDense to keep a
// serving loop allocation-free end to end.
func SpMMInto(y *Dense, s *Matrix, x *Dense) error {
	return kernels.SpMMRowWiseIntoCtx(context.Background(), y, s, x)
}

// SpMMIntoCtx is SpMMInto with cooperative cancellation between kernel
// chunks and panic isolation.
func SpMMIntoCtx(ctx context.Context, y *Dense, s *Matrix, x *Dense) error {
	return kernels.SpMMRowWiseIntoCtx(ctx, y, s, x)
}

// SDDMM computes O = S ⊙ (Y·Xᵀ) row-wise without preprocessing (Alg 2):
// O keeps S's sparsity pattern.
func SDDMM(s *Matrix, x, y *Dense) (*Matrix, error) { return kernels.SDDMMRowWise(s, x, y) }

// SDDMMInto computes O = S ⊙ (Y·Xᵀ) row-wise into the caller-provided
// out, which must have S's sparsity structure (e.g. S.Clone(), a
// previous result, or S itself for in-place value rewriting). Only
// out.Val is written; steady-state calls perform no heap allocations.
func SDDMMInto(out, s *Matrix, x, y *Dense) error {
	return kernels.SDDMMRowWiseIntoCtx(context.Background(), out, s, x, y)
}

// SDDMMIntoCtx is SDDMMInto with cooperative cancellation between
// kernel chunks and panic isolation.
func SDDMMIntoCtx(ctx context.Context, out, s *Matrix, x, y *Dense) error {
	return kernels.SDDMMRowWiseIntoCtx(ctx, out, s, x, y)
}

// GetDense returns a rows×cols scratch matrix from the process-wide
// pool with unspecified contents (call Zero if needed); return it with
// PutDense when done. Serving code that reuses outputs through this
// pool together with the *Into entry points allocates nothing per call
// at steady state.
func GetDense(rows, cols int) *Dense { return dense.Get(rows, cols) }

// PutDense returns a matrix obtained from GetDense (or any matrix the
// caller no longer needs) to the scratch pool. The matrix must not be
// used after PutDense.
func PutDense(m *Dense) { dense.Put(m) }

// Preprocess runs the paper's full preprocessing workflow (Fig 5) and
// returns the plan. Use NewPipeline for an executable wrapper. This
// entry point always computes from scratch; see PreprocessCached for
// the content-addressed variant.
func Preprocess(m *Matrix, cfg Config) (*Plan, error) { return reorder.Preprocess(m, cfg) }

// PreprocessCtx is Preprocess with cooperative cancellation: every
// parallel stage (LSH, clustering, tiling, permutation, similarity
// scans) observes ctx between work units, so cancellation aborts the
// build promptly with ctx's error, and any worker panic surfaces as a
// *PanicError instead of crashing the process.
func PreprocessCtx(ctx context.Context, m *Matrix, cfg Config) (*Plan, error) {
	return reorder.PreprocessCtx(ctx, m, cfg)
}

// DefaultPlanCacheCapacity is the number of plans the process-wide plan
// cache retains by default.
const DefaultPlanCacheCapacity = 8

// planCache is the process-wide content-addressed plan cache used by
// PreprocessCached, NewPipeline, and NewPipelineNR (and therefore
// NewOnlinePipeline). Swapped atomically so SetPlanCacheCapacity is
// safe against concurrent pipeline construction.
var planCache atomic.Pointer[plancache.Cache]

func init() { planCache.Store(plancache.New(DefaultPlanCacheCapacity)) }

// CacheStats reports the plan cache's hit/miss/eviction counters.
type CacheStats = plancache.Stats

// PlanCacheStats returns a snapshot of the process-wide plan cache
// counters.
func PlanCacheStats() CacheStats { return planCache.Load().Stats() }

// SetPlanCacheCapacity replaces the process-wide plan cache with an
// empty one holding at most n plans; n <= 0 disables caching entirely.
// Pipelines already built keep their plans; only future lookups are
// affected. The replacement cache has no snapshot directory attached —
// call LoadPlanDir (or SetPlanCacheDir) again if the disk tier should
// survive a capacity change.
func SetPlanCacheCapacity(n int) { planCache.Store(plancache.New(n)) }

// SetPlanCacheDir attaches dir as the process-wide plan cache's disk
// tier (creating it if needed): SnapshotPlanCache writes cached plans
// there, and a cache miss probes it for a previously snapshotted plan
// — applied in O(nnz), no LSH or clustering — before recomputing. An
// empty dir detaches the tier. A corrupted or truncated snapshot file
// is detected (CRC-checksummed format) and silently skipped; the plan
// is then recomputed from scratch.
func SetPlanCacheDir(dir string) error { return planCache.Load().SetDir(dir) }

// LoadPlanDir attaches dir as the plan cache's disk tier (see
// SetPlanCacheDir) and returns the number of plan snapshot files it
// currently holds — the warm-start entry point for a restarted server.
// Plans are not eagerly parsed: each file is read, verified, and
// applied only when a matrix with the matching structural fingerprint
// first arrives.
func LoadPlanDir(dir string) (int, error) {
	if err := planCache.Load().SetDir(dir); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".plan") {
			n++
		}
	}
	return n, nil
}

// SnapshotPlanCache writes every plan currently held by the
// process-wide cache to the attached snapshot directory (atomic
// temp-file + rename + fsync per plan) and returns how many were
// written. A no-op returning (0, nil) when no directory is attached.
func SnapshotPlanCache() (int, error) { return planCache.Load().Snapshot() }

// PreprocessCached is Preprocess backed by the process-wide
// content-addressed plan cache. Matrices whose sparsity *structure*
// (shape + RowPtr + ColIdx) and configuration were preprocessed before
// skip LSH, clustering, and tiling entirely: the cached plan is reused,
// with its value arrays regathered in O(nnz) if m's nonzero values
// differ from the cached ones. Plans returned on a hit share their
// (immutable) arrays with other holders of the same plan.
func PreprocessCached(m *Matrix, cfg Config) (*Plan, error) {
	return planCache.Load().Preprocess(m, cfg)
}

// PreprocessCachedCtx is PreprocessCached with cooperative cancellation
// (see PreprocessCtx). A cancelled or failed build is never cached, so
// cancellation cannot poison the plan cache.
func PreprocessCachedCtx(ctx context.Context, m *Matrix, cfg Config) (*Plan, error) {
	return planCache.Load().PreprocessCtx(ctx, m, cfg)
}

// GenerateScrambledClusters generates the paper's motivating input: rows
// drawn from `clusters` latent prototypes, randomly permuted so plain
// ASpT cannot see the structure. Useful for demos and tests.
func GenerateScrambledClusters(rows, cols, clusters int, seed int64) (*Matrix, error) {
	return synth.Clustered(synth.ClusterParams{
		Rows: rows, Cols: cols, Clusters: clusters,
		PrototypeNNZ: 24, Keep: 0.8, Noise: 2, Seed: seed, Scrambled: true,
	})
}

// GenerateUniform generates an Erdős–Rényi-style matrix (the scattered
// regime where reordering is correctly skipped).
func GenerateUniform(rows, cols, nnzPerRow int, seed int64) (*Matrix, error) {
	return synth.Uniform(rows, cols, nnzPerRow, seed)
}

// GenerateRMAT generates a scale-free R-MAT graph adjacency matrix with
// Graph500 quadrant probabilities.
func GenerateRMAT(scale, edgeFactor int, seed int64) (*Matrix, error) {
	return synth.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

package reorder

// Per-matrix kernel selection. The executor in internal/kernels offers
// four SpMM strategies — row-wise CSR, merge-based nonzero splitting,
// the ELL+COO hybrid, and the ASpT tiled kernel — and a plan serves one
// of the two that win on a CPU: skew (nnz/row coefficient of variation,
// max/mean row length) rewards the merge kernel, and everything else
// runs row-wise. The other two are not served, because in
// BenchmarkKernelCorpus (DESIGN.md §12.4) neither beats the
// autotuner's pick on any family at K = 1, 4 or 16:
//   - the hybrid slab is slot-major, so a row walk strides 4·Rows bytes
//     per slot where a CSR row is one contiguous read, near-uniform
//     rows included;
//   - the native ASpT kernel does row-wise's per-nonzero work in two
//     runs per row (tile part, then rest) and stages no dense columns,
//     so a high dense-tile ratio buys it nothing yet. The X reuse the
//     paper's tiles earn is a GPU shared-memory effect, which
//     internal/gpusim models whatever the kernel choice.
//
// The choice is made once at preprocessing time from features
// already computed (or O(rows) to compute), stored in the Plan beside
// the permutations and serialised into plan snapshots, so a deployed
// plan replays the kernel it was tuned for, including a snapshot
// written by an earlier build whose autotuner picked differently.
//
// reorder deliberately does not import internal/kernels (kernels' tests
// depend on reorder); the enum here is mapped to actual kernel entry
// points by the top-level repro package.

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Kernel identifies the SpMM execution strategy of a Plan.
type Kernel uint8

const (
	// KernelAuto is the stored kernel of a plan file written before
	// kernel tuning existed; SavedPlan.Apply re-resolves it via
	// ChooseKernel. It never appears in a returned Plan.
	KernelAuto Kernel = iota
	// KernelRowWise is the row-wise CSR kernel (paper Alg 1).
	KernelRowWise
	// KernelMerge is the merge-based (nonzero-split) CSR kernel.
	KernelMerge
	// KernelELLHybrid and KernelASpT name the ELL+COO hybrid slab
	// kernel and the tiled kernel. No plan serves them: they remain plan
	// file codes, which SavedPlan.Apply re-resolves through
	// ChooseKernel.
	KernelELLHybrid
	KernelASpT

	kernelCount // sentinel for validation
)

var kernelNames = [...]string{"auto", "rowwise", "merge", "ellhybrid", "aspt"}

func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// Valid reports whether k is a defined kernel value (including Auto).
func (k Kernel) Valid() bool { return k < kernelCount }

// KernelFeatures are the structural signals ChooseKernel decides on.
// All are O(rows) from a CSR plus the plan's dense-tile ratio.
type KernelFeatures struct {
	Rows, NNZ int
	// RowLenCV is the coefficient of variation of row lengths.
	RowLenCV float64
	// MaxOverMean is MaxRowLen / AvgRowLen (1 = perfectly uniform).
	MaxOverMean float64
	// DenseRatio is the fraction of nonzeros inside dense tiles after
	// reordering (Plan.DenseRatioAfter). ChooseKernel does not read it;
	// it is kept for /debug/explain.
	DenseRatio float64
}

// kernelFeaturesOf extracts features from the reordered matrix without
// touching the nonzeros: row lengths come from RowPtr.
func kernelFeaturesOf(m *sparse.CSR, denseRatio float64) KernelFeatures {
	f := KernelFeatures{Rows: m.Rows, NNZ: m.NNZ(), DenseRatio: denseRatio}
	if m.Rows == 0 || f.NNZ == 0 {
		return f
	}
	sum, sumSq, maxLen := 0.0, 0.0, 0
	for i := 0; i < m.Rows; i++ {
		l := m.RowLen(i)
		sum += float64(l)
		sumSq += float64(l) * float64(l)
		if l > maxLen {
			maxLen = l
		}
	}
	mean := sum / float64(m.Rows)
	if variance := sumSq/float64(m.Rows) - mean*mean; variance > 0 && mean > 0 {
		f.RowLenCV = math.Sqrt(variance) / mean
	}
	if mean > 0 {
		f.MaxOverMean = float64(maxLen) / mean
	}
	return f
}

// Autotuner thresholds. Checked against BenchmarkKernelCorpus (see
// DESIGN.md §12.4), whose per-family "regret" is the pick's time over
// the fastest kernel's. Ties resolve toward the row-wise baseline,
// whose nnz-balanced chunking is within noise of merge on
// non-pathological inputs.
const (
	// autotuneMergeCV / autotuneMergeMaxOverMean: either strong overall
	// skew or a single dominating hub row serialises a row-granular
	// chunk; the merge kernel bounds per-chunk work at ~nnz/chunks
	// regardless.
	autotuneMergeCV          = 1.5
	autotuneMergeMaxOverMean = 16.0
)

// ChooseKernel picks the execution strategy for a matrix with the given
// features: merge on skew extremes, row-wise otherwise. It never
// returns KernelELLHybrid or KernelASpT.
func ChooseKernel(f KernelFeatures) Kernel {
	if f.RowLenCV >= autotuneMergeCV || f.MaxOverMean >= autotuneMergeMaxOverMean {
		return KernelMerge
	}
	return KernelRowWise
}

// resolveKernel runs the autotuner on a freshly built plan, capturing
// the structural features the decision was made on into the plan so
// observability layers can replay the verdict (Plan.Features feeds
// /debug/explain and the autotuner feedback loop).
func resolveKernel(p *Plan) Kernel {
	p.Features = kernelFeaturesOf(p.Reordered, p.DenseRatioAfter)
	return ChooseKernel(p.Features)
}

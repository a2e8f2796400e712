package kernels

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// Kernel-corpus bench: every SpMM execution strategy on the structural
// families the autotuner discriminates between — a skewed R-MAT
// (power-law rows, where nnz-split merge should win), a banded matrix
// (moderate, regular rows), a uniform matrix (ELL-friendly, zero
// padding) and the scrambled-cluster matrix the serving benchmarks are
// built around, both as its no-reordering plan and as its reordered
// plan (whose dense tiles are ASpT's regime) — at the widths a server
// sees (K = 1, 4, 16), at K = 2, 3 and 5 (where the strip primitive's
// scalar last walk carries some or all of a row's columns), at K = 8
// and 12 (where the AVX2 strip walks a row once or twice and SSE's two
// or three times) and at K = 64.
// Run with `go test -run '^$' -bench KernelCorpus ./internal/kernels`; the
// autotuner thresholds in internal/reorder/autotune.go are checked
// against these numbers (see DESIGN.md §12).
//
// Each family runs through reorder.Preprocess, so the kernels execute
// exactly the matrix, tiles and row map a pipeline would, and the
// plan's Kernel is reorder.ChooseKernel's pick for it. The pick runs
// last in every family × K group, and its line reports "regret": its
// ns/op over the fastest kernel's ns/op in the group (1 = the autotuner
// picked the fastest kernel). Regret is only reported when all four
// kernels of the group ran, so a -bench filter that selects fewer omits
// it.
//
// Wall-clock speedups from nnz-splitting only materialise with real
// parallelism; on a 1-CPU runner the per-kernel times converge. The
// "imb@32" metric is the hardware-independent signal: the nnz load
// imbalance of row-granular chunking at 32 chunks (max chunk nnz over
// mean). Merge's flat nnz split is 1.0 by construction, so imb@32 is
// the factor row-granular chunking loses on the critical path at 32
// workers — deterministic regardless of GOMAXPROCS.

// rowImbalance builds nchunks row-granular chunks targeting equal nnz
// (the best any row-aligned partitioner can do) and returns max chunk
// nnz over mean chunk nnz. A single row longer than nnz/nchunks forces
// imbalance > 1 no matter how rows are packed.
func rowImbalance(m *sparse.CSR, nchunks int) float64 {
	nnz := m.NNZ()
	if nnz == 0 || nchunks <= 0 {
		return 1
	}
	mean := float64(nnz) / float64(nchunks)
	maxChunk, cur := 0, 0
	for i := 0; i < m.Rows; i++ {
		rl := m.RowLen(i)
		// Close the chunk before this row once it met its target, so an
		// oversized row lands in a chunk by itself.
		if cur > 0 && float64(cur)+float64(rl)/2 > mean {
			if cur > maxChunk {
				maxChunk = cur
			}
			cur = 0
		}
		cur += rl
	}
	if cur > maxChunk {
		maxChunk = cur
	}
	return float64(maxChunk) / mean
}

type benchFamily struct {
	name string
	// reorder benches the reordered plan; otherwise the no-reordering
	// plan, the matrix as generated.
	reorder bool
	build   func(short bool) (*sparse.CSR, error)
}

// scrambledClusters is the shape of the serving benchmarks' hot matrix
// (repro.GenerateScrambledClusters with rows/8 clusters).
func scrambledClusters(short bool) (*sparse.CSR, error) {
	n := 16384
	if short {
		n = 1024
	}
	return synth.Clustered(synth.ClusterParams{
		Rows: n, Cols: n, Clusters: n / 8,
		PrototypeNNZ: 24, Keep: 0.8, Noise: 2, Seed: 5, Scrambled: true,
	})
}

var benchFamilies = []benchFamily{
	{"rmat", false, func(short bool) (*sparse.CSR, error) {
		if short {
			return synth.RMAT(10, 16, 0.57, 0.19, 0.19, 21)
		}
		return synth.RMAT(13, 24, 0.57, 0.19, 0.19, 21)
	}},
	{"banded", false, func(short bool) (*sparse.CSR, error) {
		if short {
			return synth.Banded(1024, 1024, 64, 16, 7)
		}
		return synth.Banded(8192, 8192, 64, 16, 7)
	}},
	{"uniform", false, func(short bool) (*sparse.CSR, error) {
		if short {
			return synth.Uniform(1024, 1024, 16, 11)
		}
		return synth.Uniform(8192, 8192, 16, 11)
	}},
	{"scrambled", false, scrambledClusters},
	{"scrambled-rr", true, scrambledClusters},
}

var benchWidths = []int{1, 2, 3, 4, 5, 8, 12, 16, 64}

// planRowMap is the row map a pipeline passes the *IntoRowsCtx kernels:
// the plan's RowPerm, or nil when that is the identity.
func planRowMap(perm []int32) []int32 {
	for i, r := range perm {
		if int(r) != i {
			return perm
		}
	}
	return nil
}

func BenchmarkKernelCorpus(b *testing.B) {
	for _, fam := range benchFamilies {
		src, err := fam.build(testing.Short())
		if err != nil {
			b.Fatal(err)
		}
		cfg := reorder.DefaultConfig()
		cfg.Disable = !fam.reorder
		plan, err := reorder.Preprocess(src, cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, tl := plan.Reordered, plan.Tiled
		hyb, err := ellpack.FromCSRHybrid(m, 0)
		if err != nil {
			b.Fatal(err)
		}
		// The plan's row map, as a pipeline serves it: each kernel writes
		// row i of the reordered matrix to row RowPerm[i] of y.
		dst := planRowMap(plan.RowPerm)
		imb := rowImbalance(m, 32)
		imbGPU := rowImbalance(m, 1024)
		for _, k := range benchWidths {
			x := dense.NewRandom(m.Cols, k, 1)
			y := dense.New(m.Rows, k)
			type candidate struct {
				kernel reorder.Kernel
				fn     func() error
			}
			ctx := context.Background()
			cands := []candidate{
				{reorder.KernelRowWise, func() error { return SpMMRowWiseIntoRowsCtx(ctx, y, dst, m, x) }},
				{reorder.KernelMerge, func() error { return SpMMMergeIntoRowsCtx(ctx, y, dst, m, x) }},
				{reorder.KernelELLHybrid, func() error { return SpMMHybridIntoRowsCtx(ctx, y, dst, hyb, x) }},
				{reorder.KernelASpT, func() error { return SpMMASpTIntoRowsCtx(ctx, y, dst, tl, x) }},
			}
			// The pick runs last, so its line sees every kernel's time.
			pick, last := slices.IndexFunc(cands, func(c candidate) bool { return c.kernel == plan.Kernel }), len(cands)-1
			cands[pick], cands[last] = cands[last], cands[pick]
			// nsPerOp[i] is cands[i]'s final ns/op, 0 until it ran.
			nsPerOp := make([]float64, len(cands))
			for i, c := range cands {
				b.Run(fmt.Sprintf("%s/K=%d/%v", fam.name, k, c.kernel), func(b *testing.B) {
					b.SetBytes(int64(Flops(m.NNZ(), k) / 2))
					b.ReportAllocs()
					// Warm the pooled state (job structs, merge carry
					// slabs, worker pool) before the clock starts: the
					// kernels' contract is zero allocations at *steady
					// state*, and without this warmup a -benchtime 1x
					// smoke run reports the first call's one-time pool
					// misses as if the hot path allocated
					// (the corpus once showed the merge kernel at
					// 10 allocs/op this way).
					for i := 0; i < 2; i++ {
						if err := c.fn(); err != nil {
							b.Fatal(err)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := c.fn(); err != nil {
							b.Fatal(err)
						}
					}
					nsPerOp[i] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					// After the loop: ResetTimer deletes user metrics.
					b.ReportMetric(imb, "imb@32")
					b.ReportMetric(imbGPU, "imb@1k")
					if fastest := slices.Min(nsPerOp); c.kernel == plan.Kernel && fastest > 0 {
						b.ReportMetric(nsPerOp[i]/fastest, "regret")
					}
				})
			}
		}
	}
}

// TestKernelCorpusPick pins the autotuner's one remaining selection on
// every BenchmarkKernelCorpus family (at the -short sizes), as the
// bench's deterministic imb@1k signal: merge where row-granular
// chunking at 1024 chunks is badly imbalanced (R-MAT: 28.0), row-wise
// where it is about even (scrambled 1.23, banded and uniform 1.00).
func TestKernelCorpusPick(t *testing.T) {
	for _, fam := range benchFamilies {
		src, err := fam.build(true)
		if err != nil {
			t.Fatal(err)
		}
		cfg := reorder.DefaultConfig()
		cfg.Disable = !fam.reorder
		plan, err := reorder.Preprocess(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		imb := rowImbalance(plan.Reordered, 1024)
		switch plan.Kernel {
		case reorder.KernelMerge:
			if imb < 8 {
				t.Errorf("%s: picked merge at imb@1k %.2f, want >= 8", fam.name, imb)
			}
		case reorder.KernelRowWise:
			if imb > 1.5 {
				t.Errorf("%s: picked rowwise at imb@1k %.2f, want <= 1.5", fam.name, imb)
			}
		default:
			t.Errorf("%s: picked %v, want rowwise or merge", fam.name, plan.Kernel)
		}
		if want := fam.name == "rmat"; (plan.Kernel == reorder.KernelMerge) != want {
			t.Errorf("%s: picked %v at imb@1k %.2f", fam.name, plan.Kernel, imb)
		}
	}
}

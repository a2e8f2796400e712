package reorder

import (
	"fmt"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synth"
)

// benchRMAT returns the scaling-study input: a scale-free R-MAT graph
// around one million nonzeros (the regime where the paper reports
// preprocessing cost, Fig 12). Short mode shrinks it so CI smoke runs
// stay in milliseconds.
func benchRMAT(b *testing.B) *sparse.CSR {
	b.Helper()
	scale := 17 // 2^17 rows × edgeFactor 8 ≈ 1M nnz
	if testing.Short() {
		scale = 11
	}
	m, err := synth.RMAT(scale, 8, 0.57, 0.19, 0.19, 42)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// reportStages attaches the per-stage wall-clock breakdown of the last
// plan to the benchmark, so the preprocessing benchmarks capture where the
// time goes (and which stages a plan-cache hit eliminates).
func reportStages(b *testing.B, p *Plan) {
	b.Helper()
	b.ReportMetric(float64(p.Stages.Signatures.Nanoseconds()), "sig-ns/op")
	b.ReportMetric(float64(p.Stages.Banding.Nanoseconds()), "band-ns/op")
	b.ReportMetric(float64(p.Stages.Scoring.Nanoseconds()), "score-ns/op")
	b.ReportMetric(float64(p.Stages.Clustering.Nanoseconds()), "cluster-ns/op")
	b.ReportMetric(float64(p.Stages.Tiling.Nanoseconds()), "tile-ns/op")
	b.ReportMetric(float64(p.Stages.Permute.Nanoseconds()), "permute-ns/op")
	b.ReportMetric(float64(p.Stages.Heuristics.Nanoseconds()), "heur-ns/op")
}

// BenchmarkPreprocessWorkers is the parallel-preprocessing scaling
// study: the full Fig 5 workflow on a ~1M-nnz R-MAT graph at 1, 2, 4,
// and 8 workers. On a multi-core machine the ns/op ratio between w=1
// and w=8 is the engine's speedup; per-stage metrics expose which
// stages scale.
func BenchmarkPreprocessWorkers(b *testing.B) {
	m := benchRMAT(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = w
			var last *Plan
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := Preprocess(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			b.StopTimer()
			reportStages(b, last)
		})
	}
}

// BenchmarkTilingWorkers isolates the parallel two-pass ASpT build.
func BenchmarkTilingWorkers(b *testing.B) {
	m := benchRMAT(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = w
			cfg.Disable = true // tiling only (ASpT-NR)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Preprocess(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

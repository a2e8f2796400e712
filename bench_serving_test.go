package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/kernels"
)

// Serving-layer bench: aggregate throughput of effK concurrent K=1 SpMM
// requests through the full Server stack, with and without request
// coalescing. Run with `go test -run '^$' -bench ServingEffectiveK .`.
//
// Both variants run the same workload — effK clients, each one K=1
// request per round — so bytes/op is identical and MB/s compares
// directly. The independent variant executes effK separate kernel
// passes (each traverses the sparse structure for a single dense
// column); the coalesced variant column-stacks the operands and
// traverses once at the combined width. The MB/s gap is the K-scaling
// effect (arithmetic intensity rising with effective K) lifted to the
// serving layer; DESIGN.md §13.1 records measured ratios.
func BenchmarkServingEffectiveK(b *testing.B) {
	m := servingBenchMatrix(b)
	flopsPerReq := kernels.Flops(m.NNZ(), 1) / 2
	for _, variant := range []struct {
		name     string
		coalesce bool
	}{
		{"independent", false},
		{"coalesced", true},
	} {
		for _, effK := range []int{1, 4, 16} {
			name := fmt.Sprintf("%s/effk%d", variant.name, effK)
			b.Run(name, func(b *testing.B) {
				scfg := repro.ServerConfig{}
				if variant.coalesce {
					// The round's first GOMAXPROCS requests launch at once;
					// the rest gather behind them and launch together when
					// one returns (or when effK fill a batch). The window
					// only caps that wait.
					scfg.CoalesceWindow = 2 * time.Millisecond
					scfg.CoalesceMaxOps = effK
				}
				cfg := repro.DefaultConfig()
				cfg.PreprocessBudget = time.Nanosecond // plain path: kernel effect only
				s, err := repro.NewServer(context.Background(), m, cfg, scfg)
				if err != nil {
					b.Fatal(err)
				}
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					if err := s.Close(ctx); err != nil {
						b.Fatal(err)
					}
				}()
				if err := s.Pipeline().WaitPreprocessed(context.Background()); err != nil {
					b.Fatal(err)
				}
				xs := make([]*repro.Dense, effK)
				ys := make([]*repro.Dense, effK)
				for i := range xs {
					xs[i] = repro.NewRandomDense(m.Cols, 1, int64(1+i))
					ys[i] = repro.NewDense(m.Rows, 1)
				}
				round := func() {
					var wg sync.WaitGroup
					for i := 0; i < effK; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							if err := s.SpMMInto(context.Background(), ys[i], xs[i]); err != nil {
								b.Error(err)
							}
						}(i)
					}
					wg.Wait()
				}
				// Warm the pools, plan, and worker state before the clock
				// starts (see BenchmarkKernelCorpus for why).
				round()
				round()
				b.SetBytes(int64(float64(effK) * flopsPerReq))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
				b.ReportMetric(float64(effK), "effective-k")
			})
		}
	}
}

// servingBenchMatrix builds the bench corpus matrix: large enough that
// a K=1 pass is traversal-bound (the regime coalescing targets), small
// enough for a -short smoke run.
func servingBenchMatrix(b *testing.B) *repro.Matrix {
	b.Helper()
	rows := 4096
	if testing.Short() {
		rows = 1024
	}
	m, err := repro.GenerateScrambledClusters(rows, rows, 64, 2026)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

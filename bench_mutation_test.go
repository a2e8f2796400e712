package repro_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/kernels"
)

// Live-mutation benches: the cost model behind the overlay design.
// `make bench-mutation` converts the output to BENCH_mutation.json.
//
// BenchmarkMutationOverlayServe measures the serving overhead of the
// row overlay: the same SpMM through a clean live pipeline (overlay0 —
// the zero-overhead fast path) and through one with 64 / 256
// structurally-mutated rows served from the overlay alongside the
// reordered base. The per-op gap is the price of not blocking
// mutations on re-preprocessing.
//
// BenchmarkMutationReskinVsCold measures why value-only mutations take
// the re-skin path: one value update re-skinned by one O(nnz) value
// walk over the served plans (no plan-cache lookup, no LSH/clustering)
// versus a cold full re-preprocess at a fresh structural epoch. The
// ratio is the headline win of epoch-aware plan reuse.
func BenchmarkMutationOverlayServe(b *testing.B) {
	m := servingBenchMatrix(b)
	const k = 8
	flops := kernels.Flops(m.NNZ(), k) / 2
	for _, overlayRows := range []int{0, 64, 256} {
		b.Run(fmt.Sprintf("overlay%d", overlayRows), func(b *testing.B) {
			ctx := context.Background()
			cfg := repro.DefaultConfig()
			cfg.PreprocessBudget = time.Hour
			l, err := repro.NewLivePipelineCtx(ctx, m, cfg, repro.LiveConfig{RebuildDisabled: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := l.Online().WaitPreprocessed(ctx); err != nil {
				b.Fatal(err)
			}
			if overlayRows > 0 {
				// Identity-content replacements: structurally indistinguishable
				// from real edits to the pipeline, so the overlay path runs,
				// but the flops stay comparable across variants.
				mu := repro.Mutation{}
				for r := 0; r < overlayRows; r++ {
					mu.ReplaceRows = append(mu.ReplaceRows, repro.RowUpdate{Row: r, Def: repro.RowDef{
						Cols: append([]int32(nil), m.RowCols(r)...),
						Vals: append([]float32(nil), m.RowVals(r)...),
					}})
				}
				if err := l.Mutate(ctx, mu); err != nil {
					b.Fatal(err)
				}
			}
			x := repro.NewRandomDense(m.Cols, k, 1)
			y := repro.NewDense(m.Rows, k)
			for i := 0; i < 2; i++ { // decide the trial, warm the pools
				if err := l.SpMMIntoCtx(ctx, y, x); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(flops))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.SpMMIntoCtx(ctx, y, x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(overlayRows), "overlay-rows")
		})
	}
}

func BenchmarkMutationReskinVsCold(b *testing.B) {
	m := servingBenchMatrix(b)
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	b.Run("reskin", func(b *testing.B) {
		ctx := context.Background()
		l, err := repro.NewLivePipelineCtx(ctx, m, cfg, repro.LiveConfig{RebuildDisabled: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Online().WaitPreprocessed(ctx); err != nil {
			b.Fatal(err)
		}
		row := 0
		col := int(m.RowCols(row)[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Value-only on a clean state: every iteration re-skins the
			// base plans with one value walk each.
			mu := repro.Mutation{UpdateValues: []repro.ValueUpdate{{
				Row: row, Col: col, Val: float32(i%7) + 1,
			}}}
			if err := l.Mutate(ctx, mu); err != nil {
				b.Fatal(err)
			}
		}
		if st := l.Stats(); st.Reskins != int64(b.N) {
			b.Fatalf("want %d re-skins, got %+v", b.N, st)
		}
	})
	b.Run("coldrebuild", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh structural epoch defeats the plan cache, so this is
			// the full LSH + clustering + tiling preprocess a value change
			// would cost without the re-skin path.
			ccfg := cfg
			ccfg.Epoch = uint32(i + 1)
			p, err := repro.NewOnlinePipelineCtx(ctx, m, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.WaitPreprocessed(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

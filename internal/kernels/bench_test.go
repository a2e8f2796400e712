package kernels

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func benchSetup(b *testing.B, k int) (*sparse.CSR, *aspt.Matrix, *dense.Matrix, *dense.Matrix) {
	b.Helper()
	m, err := synth.Clustered(synth.ClusterParams{
		Rows: 8192, Cols: 8192, Clusters: 1024, PrototypeNNZ: 20,
		Keep: 0.8, Noise: 2, Seed: 4, Scrambled: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, k, 1)
	y := dense.NewRandom(m.Rows, k, 2)
	return m, tl, x, y
}

// Native (CPU, goroutine-parallel) kernel throughput. These are the
// correctness-substrate numbers, not the paper's GPU numbers.
func BenchmarkNativeSpMMRowWiseK64(b *testing.B) {
	m, _, x, _ := benchSetup(b, 64)
	b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpMMRowWise(m, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeSDDMMRowWiseK64(b *testing.B) {
	m, _, x, y := benchSetup(b, 64)
	b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SDDMMRowWise(m, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSkewSetup builds a power-law (R-MAT) matrix whose row lengths are
// heavily skewed — the workload where equal-row chunking loses to
// nnz-balanced partitioning.
func benchSkewSetup(b *testing.B, k int) (*sparse.CSR, *dense.Matrix) {
	b.Helper()
	m, err := synth.RMAT(13, 24, 0.57, 0.19, 0.19, 21)
	if err != nil {
		b.Fatal(err)
	}
	return m, dense.NewRandom(m.Cols, k, 1)
}

// spmmEqualRows is the seed's execution strategy — equal-row chunks via
// parallelRows — kept here as the benchmark baseline for the
// nnz-balanced engine.
func spmmEqualRows(y *dense.Matrix, s *sparse.CSR, x *dense.Matrix) {
	parallelRows(s.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yi := y.Row(i)
			clear(yi)
			cols, vals := s.RowCols(i), s.RowVals(i)
			for jj := range cols {
				v := vals[jj]
				xr := x.Row(int(cols[jj]))
				for k := range yi {
					yi[k] += v * xr[k]
				}
			}
		}
	})
}

// BenchmarkSpMMSkewEqualRows vs BenchmarkSpMMSkewBalanced: the same
// row-wise kernel on the same R-MAT matrix under the seed's equal-row
// chunking and the nnz-balanced work-stealing engine.
func BenchmarkSpMMSkewEqualRows(b *testing.B) {
	m, x := benchSkewSetup(b, 64)
	y := dense.New(m.Rows, x.Cols)
	b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmmEqualRows(y, m, x)
	}
}

func BenchmarkSpMMSkewBalanced(b *testing.B) {
	m, x := benchSkewSetup(b, 64)
	y := dense.New(m.Rows, x.Cols)
	b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SpMMRowWiseIntoCtx(context.Background(), y, m, x); err != nil {
			b.Fatal(err)
		}
	}
}

// Into-variant benches: same kernels as the allocating benches above, but
// through the zero-allocation path. -benchmem (or ReportAllocs here)
// should show 0 allocs/op at steady state.
func BenchmarkNativeSpMMRowWiseIntoK64(b *testing.B) {
	m, _, x, _ := benchSetup(b, 64)
	y := dense.New(m.Rows, x.Cols)
	b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SpMMRowWiseIntoCtx(context.Background(), y, m, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeSpMMASpTIntoK64(b *testing.B) {
	m, tl, x, _ := benchSetup(b, 64)
	y := dense.New(m.Rows, x.Cols)
	b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SpMMASpTIntoCtx(context.Background(), y, tl, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeSDDMMASpTIntoK64(b *testing.B) {
	m, tl, x, y := benchSetup(b, 64)
	out := m.Clone()
	b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SDDMMASpTIntoCtx(context.Background(), out, tl, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeSpMMScaling measures the native kernel across worker
// counts (GOMAXPROCS), showing the shared-memory scaling of the
// correctness substrate.
func BenchmarkNativeSpMMScaling(b *testing.B) {
	m, _, x, _ := benchSetup(b, 64)
	for _, procs := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "p1", 2: "p2", 4: "p4", 8: "p8"}[procs]
		b.Run(name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.SetBytes(int64(Flops(m.NNZ(), 64) / 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SpMMRowWise(m, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

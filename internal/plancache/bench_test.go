package plancache

import (
	"testing"

	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func benchMatrix(b *testing.B) *sparse.CSR {
	b.Helper()
	scale := 15
	if testing.Short() {
		scale = 10
	}
	m, err := synth.RMAT(scale, 8, 0.57, 0.19, 0.19, 7)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCacheHitSameValues is the best case: structure and values
// already cached, so a hit costs two O(nnz) hashes and a struct copy.
func BenchmarkCacheHitSameValues(b *testing.B) {
	c := New(4)
	m := benchMatrix(b)
	cfg := reorder.DefaultConfig()
	if _, err := c.Preprocess(m, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(m, cfg); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheHitNewValues measures the re-skin path — the serving
// scenario where the same structure arrives with fresh nonzero values:
// fingerprint + three O(nnz) gathers, no LSH/clustering/tiling.
func BenchmarkCacheHitNewValues(b *testing.B) {
	c := New(4)
	m := benchMatrix(b)
	cfg := reorder.DefaultConfig()
	if _, err := c.Preprocess(m, cfg); err != nil {
		b.Fatal(err)
	}
	m2 := &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx,
		Val: make([]float32, m.NNZ())}
	for i := range m2.Val {
		m2.Val[i] = float32(i%31) - 15
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(m2, cfg); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheMissFingerprint isolates the overhead a cold miss adds
// on top of the preprocessing it cannot avoid: one structural
// fingerprint of an uncached matrix.
func BenchmarkCacheMissFingerprint(b *testing.B) {
	c := New(4)
	m := benchMatrix(b)
	cfg := reorder.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(m, cfg); ok {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkColdPreprocess is the uncached baseline the hit benchmarks
// are read against: the full workflow on the same matrix.
func BenchmarkColdPreprocess(b *testing.B) {
	m := benchMatrix(b)
	cfg := reorder.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reorder.Preprocess(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package kernels

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
)

// TestIntoZeroAllocsAfterWarmup pins every *Into kernel to exactly zero
// steady-state allocations — the regression test behind the
// BenchmarkKernelCorpus numbers. The earlier lenient bound (< 2) let the
// bench harness's missing warmup masquerade as a hot-path leak: with
// -benchtime 1x the merge kernel reported 10 allocs/op that were all
// first-call pool misses (job struct, merge chunk and carry slabs).
// After a warmup the contract is exact; assertZeroAllocsAfterWarmup
// retries a couple of times so a GC emptying the sync.Pools
// mid-measurement cannot flake the pin. It runs at K = 16 and at K = 1
// and 3, where the strip primitive's scalar last walk is a row's only
// walk.
func TestIntoZeroAllocsAfterWarmup(t *testing.T) {
	m := hubMatrix(t)
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ell := zeroSpillHybrid(t, m)
	hyb, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Clone()
	for _, k := range []int{1, 3, 16} {
		x := dense.NewRandom(m.Cols, k, 1)
		y := dense.New(m.Rows, k)
		yd := dense.NewRandom(m.Rows, k, 2)
		for name, call := range map[string]func() error{
			"SpMMRowWiseInto":    func() error { return SpMMRowWiseIntoCtx(context.Background(), y, m, x) },
			"SpMMMergeInto":      func() error { return SpMMMergeIntoCtx(context.Background(), y, m, x) },
			"SpMMHybridInto/ell": func() error { return SpMMHybridIntoCtx(context.Background(), y, ell, x) },
			"SpMMHybridInto":     func() error { return SpMMHybridIntoCtx(context.Background(), y, hyb, x) },
			"SpMMASpTInto":       func() error { return SpMMASpTIntoCtx(context.Background(), y, tl, x) },
			"SDDMMRowWiseInto":   func() error { return SDDMMRowWiseIntoCtx(context.Background(), out, m, x, yd) },
			"SDDMMASpTInto":      func() error { return SDDMMASpTIntoCtx(context.Background(), out, tl, x, yd) },
		} {
			call := call
			assertZeroAllocsAfterWarmup(t, fmt.Sprintf("%s K=%d", name, k), func() {
				if err := call(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

package kernels

import (
	"context"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
)

// TestIntoZeroAllocsAfterWarmup pins every *Into kernel to exactly zero
// steady-state allocations — the regression test behind the
// BENCH_kernels.json numbers. The earlier lenient bound (< 2) let the
// bench harness's missing warmup masquerade as a hot-path leak: with
// -benchtime 1x the merge kernel reported 10 allocs/op that were all
// first-call pool misses (job struct, merge chunk and carry slabs).
// After a warmup the contract is exact; assertZeroAllocsAfterWarmup
// retries a couple of times so a GC emptying the sync.Pools
// mid-measurement cannot flake the pin.
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
	x := dense.NewRandom(m.Cols, 16, 1)
	y := dense.New(m.Rows, 16)
	out := m.Clone()
	yd := dense.NewRandom(m.Rows, 16, 2)
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
		assertZeroAllocsAfterWarmup(t, name, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

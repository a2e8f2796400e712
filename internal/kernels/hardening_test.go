package kernels

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/synth"
)

func TestKernelFaultInjection(t *testing.T) {
	s, err := synth.Uniform(2048, 512, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(512, 32, 1)
	y := dense.New(2048, 32)

	defer faultinject.ErrorAt("kernels.exec")()
	if err := SpMMRowWiseIntoCtx(context.Background(), y, s, x); !errors.Is(err, faultinject.Err) {
		t.Fatalf("SpMM with fault = %v, want faultinject.Err", err)
	}
	faultinject.Reset()

	// A panicking kernel chunk must surface as *par.PanicError without
	// crashing or wedging the shared worker pool.
	defer faultinject.PanicAt("kernels.exec")()
	err = SpMMRowWiseIntoCtx(context.Background(), y, s, x)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("kernel panic surfaced as %v, want *par.PanicError", err)
	}
	faultinject.Reset()

	// The pool must be fully reusable after both failure modes.
	if err := SpMMRowWiseIntoCtx(context.Background(), y, s, x); err != nil {
		t.Fatalf("clean SpMM after faults: %v", err)
	}
}

func TestKernelCancellation(t *testing.T) {
	s, err := synth.Uniform(2048, 512, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(512, 32, 1)
	y := dense.New(2048, 32)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SpMMRowWiseIntoCtx(ctx, y, s, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SpMM = %v, want context.Canceled", err)
	}

	// Cancel mid-run from a kernel chunk; remaining chunk claims must
	// observe ctx and the call must report its error. Force the
	// multi-chunk dispatch path so there IS a "between chunks" even on a
	// single-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx2, cancel2 := context.WithCancel(context.Background())
	var calls atomic.Int64
	defer faultinject.Set("kernels.exec", func() error {
		if calls.Add(1) == 1 {
			cancel2()
		}
		return nil
	})()
	if err := SpMMRowWiseIntoCtx(ctx2, y, s, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancelled SpMM = %v, want context.Canceled", err)
	}
}

func TestASpTKernelFaultInjection(t *testing.T) {
	s, err := synth.Uniform(1024, 512, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := aspt.Build(s, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(512, 16, 2)
	yk := dense.NewRandom(1024, 16, 3)
	y := dense.New(1024, 16)
	out := s.Clone()

	defer faultinject.ErrorAt("kernels.exec")()
	if err := SpMMASpTIntoCtx(context.Background(), y, tm, x); !errors.Is(err, faultinject.Err) {
		t.Fatalf("ASpT SpMM with fault = %v, want faultinject.Err", err)
	}
	if err := SDDMMASpTIntoCtx(context.Background(), out, tm, x, yk); !errors.Is(err, faultinject.Err) {
		t.Fatalf("ASpT SDDMM with fault = %v, want faultinject.Err", err)
	}
	if err := SDDMMRowWiseIntoCtx(context.Background(), out, s, x, yk); !errors.Is(err, faultinject.Err) {
		t.Fatalf("row-wise SDDMM with fault = %v, want faultinject.Err", err)
	}
}

// TestSpMMBadColumnFails pins the row loops' range check: a column index
// outside X's rows, planted past validation into a CSR, an ASpT part
// (tile or rest) or a HYB part (slab or spill), fails every SpMM kernel
// and kernels.SpMMRow with a *par.PanicError instead of reading outside
// X — in each strip width of every strip path, in the scalar tail, and
// in a row's second run.
func TestSpMMBadColumnFails(t *testing.T) {
	m := oracleMatrix(rand.New(rand.NewSource(5)), 40, 16)
	hub := m.Rows / 5
	type corrupt struct {
		name string
		run  func(bad int32, y, x *dense.Matrix) error
	}
	ctx := context.Background()
	cases := []corrupt{
		{"rowwise", func(bad int32, y, x *dense.Matrix) error {
			s := m.Clone()
			s.ColIdx[s.RowPtr[hub+1]-1] = bad
			return SpMMRowWiseIntoCtx(ctx, y, s, x)
		}},
		{"merge", func(bad int32, y, x *dense.Matrix) error {
			s := m.Clone()
			s.ColIdx[s.RowPtr[hub]+1] = bad
			return SpMMMergeIntoCtx(ctx, y, s, x)
		}},
		{"aspt/tile", func(bad int32, y, x *dense.Matrix) error {
			tl, err := aspt.Build(m.Clone(), aspt.DefaultParams())
			if err != nil {
				return err
			}
			tl.TileCol[len(tl.TileCol)/2] = bad
			return SpMMASpTIntoCtx(ctx, y, tl, x)
		}},
		{"aspt/rest", func(bad int32, y, x *dense.Matrix) error {
			tl, err := aspt.Build(m.Clone(), aspt.DefaultParams())
			if err != nil {
				return err
			}
			tl.Rest.ColIdx[len(tl.Rest.ColIdx)/2] = bad
			return SpMMASpTIntoCtx(ctx, y, tl, x)
		}},
		{"hyb/slab", func(bad int32, y, x *dense.Matrix) error {
			h, err := ellpack.FromCSRHybrid(m, 0)
			if err != nil {
				return err
			}
			h.ELL.Cols[int(h.ELL.RowLen[hub]-1)*h.ELL.Rows+hub] = bad
			return SpMMHybridIntoCtx(ctx, y, h, x)
		}},
		{"hyb/spill", func(bad int32, y, x *dense.Matrix) error {
			h, err := ellpack.FromCSRHybrid(m, 0)
			if err != nil {
				return err
			}
			h.Spill[len(h.Spill)-1].Col = bad
			return SpMMHybridIntoCtx(ctx, y, h, x)
		}},
		{"SpMMRow", func(bad int32, y, x *dense.Matrix) error {
			cols := append([]int32(nil), m.RowCols(hub)...)
			cols[len(cols)-1] = bad
			return par.Guard(func() error {
				SpMMRow(y.Row(0), x.Data, cols, m.RowVals(hub))
				return nil
			})
		}},
	}
	onStripPaths(t, func(t *testing.T) {
		for _, k := range []int{3, 4, 8, 16, 21} {
			x := dense.NewRandom(m.Cols, k, 1)
			y := dense.New(m.Rows, k)
			for _, bad := range []int32{int32(m.Cols), -1} {
				for _, c := range cases {
					var pe *par.PanicError
					if err := c.run(bad, y, x); !errors.As(err, &pe) {
						t.Errorf("%s K=%d column %d: got %v, want *par.PanicError", c.name, k, bad, err)
					}
				}
			}
		}
	})
}

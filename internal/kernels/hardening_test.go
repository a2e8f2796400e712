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
	"repro/internal/sparse"
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
// X — in each strip width of every strip path, in the strip
// primitive's scalar last walk (the K%4 columns, and below K = 4 the
// row's only walk), and in a row's second run. The CSR and ASpT kernels
// walk a row range per strip call, so their bad column also sits at
// both ends of the range: the first pair of the first non-empty row and
// the last pair of the last non-empty row. At K = 1 rows are walked two
// at a time, so row-wise also plants it at the first pair of the hub
// and of each neighbour: one of those lies in the part of a row pair
// that both rows walk together, whichever row each pair starts at.
func TestSpMMBadColumnFails(t *testing.T) {
	m := oracleMatrix(rand.New(rand.NewSource(5)), 40, 16)
	hub := m.Rows / 5
	type corrupt struct {
		name string
		run  func(bad int32, y, x *dense.Matrix) error
	}
	ctx := context.Background()
	csrCase := func(name string, at int, kernel func(context.Context, *dense.Matrix, *sparse.CSR, *dense.Matrix) error) corrupt {
		return corrupt{name, func(bad int32, y, x *dense.Matrix) error {
			s := m.Clone()
			s.ColIdx[at] = bad
			return kernel(ctx, y, s, x)
		}}
	}
	// asptCase plants bad in the tile part (rest false) or the rest part at
	// the position pick chooses among n pairs.
	asptCase := func(name string, rest bool, pick func(n int) int) corrupt {
		return corrupt{name, func(bad int32, y, x *dense.Matrix) error {
			tl, err := aspt.Build(m.Clone(), aspt.DefaultParams())
			if err != nil {
				return err
			}
			cols := tl.TileCol
			if rest {
				cols = tl.Rest.ColIdx
			}
			cols[pick(len(cols))] = bad
			return SpMMASpTIntoCtx(ctx, y, tl, x)
		}}
	}
	first := func(int) int { return 0 }
	mid := func(n int) int { return n / 2 }
	last := func(n int) int { return n - 1 }
	cases := []corrupt{
		csrCase("rowwise", int(m.RowPtr[hub+1])-1, SpMMRowWiseIntoCtx),
		csrCase("rowwise/prev", int(m.RowPtr[hub-1]), SpMMRowWiseIntoCtx),
		csrCase("rowwise/hubfirst", int(m.RowPtr[hub]), SpMMRowWiseIntoCtx),
		csrCase("rowwise/next", int(m.RowPtr[hub+1]), SpMMRowWiseIntoCtx),
		csrCase("rowwise/first", 0, SpMMRowWiseIntoCtx),
		csrCase("rowwise/last", m.NNZ()-1, SpMMRowWiseIntoCtx),
		csrCase("merge", int(m.RowPtr[hub])+1, SpMMMergeIntoCtx),
		csrCase("merge/first", 0, SpMMMergeIntoCtx),
		csrCase("merge/last", m.NNZ()-1, SpMMMergeIntoCtx),
		asptCase("aspt/tile", false, mid),
		asptCase("aspt/tile/first", false, first),
		asptCase("aspt/tile/last", false, last),
		asptCase("aspt/rest", true, mid),
		asptCase("aspt/rest/first", true, first),
		asptCase("aspt/rest/last", true, last),
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
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 16, 21} {
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

// TestSpMMBadRowPointerFails: the strip primitive follows a row pointer
// that Go did not bounds-check, so it checks each row's span itself. A
// row pointer that decreases, points past the pairs or is negative
// fails the row-wise kernel and both ASpT parts with a *par.PanicError
// instead of reading outside the operand, on every strip path: at K =
// 16 (strips only), at K = 1, 2 and 3 (the scalar last walk alone,
// where ASpT's rest is the accum run) and at K = 5, 7 and 21 (both).
// Past each operand's pairs sits spare capacity of
// valid pairs, so only the span check can catch a read there.
func TestSpMMBadRowPointerFails(t *testing.T) {
	m := oracleMatrix(rand.New(rand.NewSource(5)), 40, 16)
	hub := m.Rows / 5
	ctx := context.Background()
	spare := func(cols []int32, vals []float32) ([]int32, []float32) {
		n := len(cols)
		return append(cols[:n:n], make([]int32, 64)...)[:n], append(vals[:n:n], make([]float32, 64)...)[:n]
	}
	corrupt := map[string]func(rp []int32){
		"decreasing":     func(rp []int32) { rp[hub+1] = rp[hub] - 1 },
		"past the pairs": func(rp []int32) { rp[len(rp)-1]++ },
		"negative":       func(rp []int32) { rp[hub] = -1 },
	}
	kernels := map[string]func(bad func([]int32), y, x *dense.Matrix) error{
		"rowwise": func(bad func([]int32), y, x *dense.Matrix) error {
			s := m.Clone()
			s.ColIdx, s.Val = spare(s.ColIdx, s.Val)
			bad(s.RowPtr)
			return SpMMRowWiseIntoCtx(ctx, y, s, x)
		},
		"aspt/tile": func(bad func([]int32), y, x *dense.Matrix) error {
			tl, err := aspt.Build(m.Clone(), aspt.DefaultParams())
			if err != nil {
				return err
			}
			tl.TileCol, tl.TileVal = spare(tl.TileCol, tl.TileVal)
			bad(tl.TileRowPtr)
			return SpMMASpTIntoCtx(ctx, y, tl, x)
		},
		"aspt/rest": func(bad func([]int32), y, x *dense.Matrix) error {
			tl, err := aspt.Build(m.Clone(), aspt.DefaultParams())
			if err != nil {
				return err
			}
			tl.Rest.ColIdx, tl.Rest.Val = spare(tl.Rest.ColIdx, tl.Rest.Val)
			bad(tl.Rest.RowPtr)
			return SpMMASpTIntoCtx(ctx, y, tl, x)
		},
	}
	onStripPaths(t, func(t *testing.T) {
		for _, k := range []int{1, 2, 3, 5, 7, 16, 21} {
			x := dense.NewRandom(m.Cols, k, 1)
			y := dense.New(m.Rows, k)
			for cname, bad := range corrupt {
				for kname, run := range kernels {
					var pe *par.PanicError
					if err := run(bad, y, x); !errors.As(err, &pe) {
						t.Errorf("%s K=%d row pointer %s: got %v, want *par.PanicError", kname, k, cname, err)
					}
				}
			}
		}
	})
}

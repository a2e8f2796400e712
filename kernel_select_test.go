package repro_test

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/reorder"
)

// TestPipelineKernelPathsAgree runs the same SpMM through both served
// kernels — row-wise on a scrambled-cluster matrix and merge on a
// shuffled R-MAT one, each pick asserted on the pipeline and on every
// row panel — on the direct pipeline path, the batched (column-stacked)
// path, and the sharded scatter-gather path, and checks every execution
// agrees with the plain reference within float tolerance. The
// permute-back, batch stack/scatter, and panel scatter-gather plumbing
// must all be kernel-agnostic: a silent disagreement here is exactly
// the class of corruption the serving stack's shadow verification
// exists to catch, so this property test is its offline counterpart.
func TestPipelineKernelPathsAgree(t *testing.T) {
	for _, in := range []struct {
		m    *repro.Matrix
		pick repro.Kernel
	}{{scrambled(t), repro.KernelRowWise}, {skewed(t), repro.KernelMerge}} {
		m, k := in.m, in.pick
		x := repro.NewRandomDense(m.Cols, 16, 3)
		want, err := repro.SpMM(m, x)
		if err != nil {
			t.Fatal(err)
		}
		// Batch operands at two different widths, so the column-stacked
		// pass exercises a combined width none of the operands has on its
		// own.
		x2 := repro.NewRandomDense(m.Cols, 7, 4)
		want2, err := repro.SpMM(m, x2)
		if err != nil {
			t.Fatal(err)
		}
		agree := func(path string, got, ref *repro.Dense) {
			t.Helper()
			for i := range ref.Data {
				if d := math.Abs(float64(ref.Data[i] - got.Data[i])); d > 1e-3 {
					t.Fatalf("%v kernel (%s path) diverges at %d by %v", k, path, i, d)
				}
			}
		}
		cfg := repro.DefaultConfig()
		p, err := repro.NewPipeline(m, cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if p.Kernel() != k {
			t.Fatalf("pipeline kernel = %v, want %v", p.Kernel(), k)
		}
		got, err := p.SpMM(x)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		agree("direct", got, want)

		// Batched path: one column-stacked kernel pass at the combined
		// width, scattered back per operand.
		ops := []repro.BatchOp{
			{Y: repro.NewDense(m.Rows, x.Cols), X: x},
			{Y: repro.NewDense(m.Rows, x2.Cols), X: x2},
		}
		if err := kernels.SpMMBatchIntoCtx(context.Background(), p, ops); err != nil {
			t.Fatalf("%v batch: %v", k, err)
		}
		agree("batched", ops[0].Y, want)
		agree("batched", ops[1].Y, want2)

		// Sharded path: nnz-balanced row panels, each running its own
		// pipeline, scatter-gathered into one output.
		sh, err := repro.NewShardedPipeline(m, cfg, m.NNZ()/3)
		if err != nil {
			t.Fatalf("%v sharded: %v", k, err)
		}
		if sh.Panels() < 2 {
			t.Fatalf("%v: matrix did not shard (%d panels)", k, sh.Panels())
		}
		for i := 0; i < sh.Panels(); i++ {
			if pk := sh.PanelKernel(i); pk != k {
				t.Fatalf("panel %d kernel = %v, want %v", i, pk, k)
			}
		}
		ysh := repro.NewDense(m.Rows, x.Cols)
		if err := sh.SpMMIntoCtx(context.Background(), ysh, x); err != nil {
			t.Fatalf("%v sharded: %v", k, err)
		}
		agree("sharded", ysh, want)

		// Sharded batched path: the stacked pass per panel.
		shOps := []repro.BatchOp{
			{Y: repro.NewDense(m.Rows, x.Cols), X: x},
			{Y: repro.NewDense(m.Rows, x2.Cols), X: x2},
		}
		if err := kernels.SpMMBatchIntoCtx(context.Background(), sh, shOps); err != nil {
			t.Fatalf("%v sharded batch: %v", k, err)
		}
		agree("sharded-batched", shOps[0].Y, want)
		agree("sharded-batched", shOps[1].Y, want2)
	}
}

// TestPipelineKernelAutotuned checks the default config resolves to a
// concrete kernel and that the choice survives a plan snapshot
// round-trip through SavePlan / NewPipelineFromSavedPlan.
func TestPipelineKernelAutotuned(t *testing.T) {
	m := scrambled(t)
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel() != repro.KernelRowWise && p.Kernel() != repro.KernelMerge {
		t.Fatalf("pipeline kernel = %v, want rowwise or merge", p.Kernel())
	}
	var buf bytes.Buffer
	if err := p.SavePlan(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := repro.NewPipelineFromSavedPlan(m, repro.DefaultConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Kernel() != p.Kernel() {
		t.Fatalf("snapshot kernel = %v, want %v", p2.Kernel(), p.Kernel())
	}

	// The online pipeline and server surface the same choice.
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if o.Kernel() != p.Kernel() {
		t.Fatalf("online pipeline kernel = %v, want %v", o.Kernel(), p.Kernel())
	}
}

// TestAutoKernelNeverHybrid pins the autotuner's verdict on the shapes
// the serving benchmarks are built from: near-uniform rows (CV ≈ 0.1 for
// scrambled clusters, 0 for a uniform 16-per-row matrix) resolve to the
// row-wise kernel, never to the slot-major HYB slab, and a reordered
// plan's dense tiles do not select ASpT.
func TestAutoKernelNeverHybrid(t *testing.T) {
	uni, err := repro.GenerateUniform(2048, 2048, 16, 43)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *repro.Matrix
		nr   bool
	}{
		{"scrambled/nr", scrambled(t), true},
		{"scrambled/reordered", scrambled(t), false},
		{"uniform/nr", uni, true},
		{"uniform/reordered", uni, false},
	}
	for _, c := range cases {
		build := repro.NewPipeline
		if c.nr {
			build = repro.NewPipelineNR
		}
		p, err := build(c.m, repro.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if k := p.Kernel(); k != repro.KernelRowWise {
			f := p.Plan().Features
			t.Errorf("%s: auto kernel = %v, want rowwise (row-length CV %.3f, max/mean %.2f, dense ratio %.3f)",
				c.name, k, f.RowLenCV, f.MaxOverMean, f.DenseRatio)
		}
	}
}

// TestPlanFileStoredKernel writes plan files whose stored kernel the
// autotuner would not pick and loads them through
// NewPipelineFromPlanFile: a stored merge on a matrix whose pick is
// row-wise still serves merge, and a stored ellhybrid, aspt or legacy 0
// — kernels no pipeline serves — re-resolves to ChooseKernel's pick.
func TestPlanFileStoredKernel(t *testing.T) {
	m := scrambled(t)
	cfg := repro.DefaultConfig()
	p, err := repro.NewPipeline(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pick := reorder.ChooseKernel(p.Plan().Features)
	if pick != repro.KernelRowWise {
		t.Fatalf("autotuner picked %v, want rowwise", pick)
	}
	x := repro.NewRandomDense(m.Cols, 8, 2)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ stored, want repro.Kernel }{
		{reorder.KernelMerge, repro.KernelMerge},
		{reorder.KernelELLHybrid, pick},
		{reorder.KernelASpT, pick},
		{reorder.KernelAuto, pick},
	} {
		plan := *p.Plan()
		plan.Kernel = c.stored
		path := filepath.Join(t.TempDir(), "stored.plan")
		if err := reorder.WritePlanFile(path, &plan); err != nil {
			t.Fatal(err)
		}
		q, err := repro.NewPipelineFromPlanFile(m, cfg, path)
		if err != nil {
			t.Fatalf("stored %v: %v", c.stored, err)
		}
		if q.Kernel() != c.want {
			t.Fatalf("stored %v: pipeline kernel = %v, want %v", c.stored, q.Kernel(), c.want)
		}
		got, err := q.SpMM(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := dense.MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("stored %v: differs from row-wise by %v", c.stored, d)
		}
	}
}

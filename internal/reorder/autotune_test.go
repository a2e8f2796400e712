package reorder

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synth"
)

func TestChooseKernel(t *testing.T) {
	cases := []struct {
		name string
		f    KernelFeatures
		want Kernel
	}{
		{"empty", KernelFeatures{Rows: 10}, KernelRowWise},
		// Dense tiles do not select ASpT: the native tiled kernel does
		// row-wise's work in two runs per row and stages no tiles, so
		// it never beats the CSR pick; skew still picks merge.
		{"dense-tiles", KernelFeatures{Rows: 10, NNZ: 100, DenseRatio: 0.5}, KernelRowWise},
		{"dense-tiles-skewed", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 2.5, MaxOverMean: 4, DenseRatio: 0.5}, KernelMerge},
		{"skewed-cv", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 2.5, MaxOverMean: 4}, KernelMerge},
		{"cv-boundary", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: autotuneMergeCV, MaxOverMean: 4}, KernelMerge},
		{"hub-row", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 0.9, MaxOverMean: 40}, KernelMerge},
		// Near-uniform rows run row-wise: the slot-major HYB slab loses
		// to a contiguous CSR row read at every width, so the tuner
		// never picks it.
		{"uniform", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 0.05, MaxOverMean: 1.2}, KernelRowWise},
		{"cv-0", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 0, MaxOverMean: 1}, KernelRowWise},
		{"cv-0.25", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 0.25, MaxOverMean: 2}, KernelRowWise},
		{"cv-0.5", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 0.5, MaxOverMean: 2}, KernelRowWise},
		{"moderate", KernelFeatures{Rows: 10, NNZ: 100, RowLenCV: 0.6, MaxOverMean: 3}, KernelRowWise},
	}
	for _, c := range cases {
		if got := ChooseKernel(c.f); got != c.want {
			t.Errorf("%s: ChooseKernel = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestKernelStringAndValid(t *testing.T) {
	seen := map[string]bool{}
	for k := KernelAuto; k < kernelCount; k++ {
		if !k.Valid() || seen[k.String()] {
			t.Fatalf("kernel %d: name %q, valid %v", uint8(k), k.String(), k.Valid())
		}
		seen[k.String()] = true
	}
	if Kernel(200).Valid() {
		t.Fatal("Kernel(200) reported valid")
	}
}

func TestPreprocessResolvesKernel(t *testing.T) {
	// A power-law matrix has high skew: the autotuner must land on
	// merge, and a uniform one on row-wise — never on Auto.
	skewed, err := synth.RMAT(9, 16, 0.57, 0.19, 0.19, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := synth.Uniform(256, 256, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Disable = true
	for _, c := range []struct {
		m    *sparse.CSR
		want Kernel
	}{{skewed, KernelMerge}, {uniform, KernelRowWise}} {
		plan, err := Preprocess(c.m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kernel != c.want || plan.Kernel != ChooseKernel(plan.Features) {
			t.Fatalf("%dx%d matrix chose %v, want %v", c.m.Rows, c.m.Cols, plan.Kernel, c.want)
		}
	}
}

// A plan file replays a stored row-wise or merge choice, even where the
// autotuner would now pick the other, and re-resolves any other stored
// value — a legacy 0, or a kernel no plan serves — through
// ChooseKernel.
func TestPlanKernelSnapshotRoundTrip(t *testing.T) {
	uniform, err := synth.Uniform(256, 256, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := synth.RMAT(9, 16, 0.57, 0.19, 0.19, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Disable = true
	for _, c := range []struct {
		name   string
		m      *sparse.CSR
		pick   Kernel // what ChooseKernel says
		stored Kernel
		want   Kernel
	}{
		{"merge-on-rowwise", uniform, KernelRowWise, KernelMerge, KernelMerge},
		{"rowwise-on-merge", skewed, KernelMerge, KernelRowWise, KernelRowWise},
		{"ellhybrid", uniform, KernelRowWise, KernelELLHybrid, KernelRowWise},
		{"aspt", uniform, KernelRowWise, KernelASpT, KernelRowWise},
		{"aspt-on-merge", skewed, KernelMerge, KernelASpT, KernelMerge},
		{"legacy", skewed, KernelMerge, KernelAuto, KernelMerge},
	} {
		plan, err := Preprocess(c.m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kernel != c.pick {
			t.Fatalf("%s: autotuner picked %v, want %v", c.name, plan.Kernel, c.pick)
		}
		plan.Kernel = c.stored
		var buf bytes.Buffer
		if err := WritePlan(&buf, plan); err != nil {
			t.Fatal(err)
		}
		sp, err := ReadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if sp.Kernel != c.stored {
			t.Fatalf("%s: stored kernel = %v, want %v", c.name, sp.Kernel, c.stored)
		}
		rebuilt, err := sp.Apply(c.m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt.Kernel != c.want {
			t.Fatalf("%s: Apply kernel = %v, want %v", c.name, rebuilt.Kernel, c.want)
		}
		if rebuilt.Features != plan.Features {
			t.Fatalf("%s: Apply features %+v, want %+v", c.name, rebuilt.Features, plan.Features)
		}

		// A corrupt kernel field in the flags is rejected at read time.
		bad := append([]byte(nil), buf.Bytes()...)
		bad[13] |= 0x0F // flags bits 8-11 = 15: out of range
		if _, err := ReadPlan(bytes.NewReader(bad)); !errors.Is(err, ErrPlanFormat) {
			t.Fatalf("%s: corrupt kernel field accepted: %v", c.name, err)
		}
	}
}

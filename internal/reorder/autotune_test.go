package reorder

import (
	"bytes"
	"errors"
	"testing"

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

func TestKernelParseAndString(t *testing.T) {
	for k := KernelAuto; k < kernelCount; k++ {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKernel(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKernel("vulkan"); err == nil {
		t.Fatal("ParseKernel accepted an unknown name")
	}
	if Kernel(200).Valid() {
		t.Fatal("Kernel(200) reported valid")
	}
}

func TestPreprocessResolvesKernel(t *testing.T) {
	// A power-law matrix has high skew: the autotuner must land on
	// merge — and must never return Auto.
	m, err := synth.RMAT(9, 16, 0.57, 0.19, 0.19, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Disable = true
	plan, err := Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel == KernelAuto {
		t.Fatal("Preprocess returned an unresolved kernel")
	}
	if plan.Kernel != KernelMerge {
		t.Fatalf("skewed matrix chose %v, want merge", plan.Kernel)
	}

	cfg.Kernel = KernelRowWise
	plan, err = Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel != KernelRowWise {
		t.Fatalf("override ignored: got %v", plan.Kernel)
	}
}

func TestPlanKernelSnapshotRoundTrip(t *testing.T) {
	m, err := synth.Uniform(256, 256, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Disable = true
	cfg.Kernel = KernelMerge // force a non-default choice through the file
	plan, err := Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	sp, err := ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kernel != KernelMerge {
		t.Fatalf("stored kernel = %v, want merge", sp.Kernel)
	}

	// The stored choice survives Apply under an auto config...
	autoCfg := DefaultConfig()
	autoCfg.Disable = true
	rebuilt, err := sp.Apply(m, autoCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Kernel != KernelMerge {
		t.Fatalf("Apply kernel = %v, want stored merge", rebuilt.Kernel)
	}
	// ...an explicit config override beats the stored choice...
	autoCfg.Kernel = KernelASpT
	rebuilt, err = sp.Apply(m, autoCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Kernel != KernelASpT {
		t.Fatalf("Apply override kernel = %v, want aspt", rebuilt.Kernel)
	}
	// ...and a legacy snapshot with no stored choice re-runs the tuner.
	sp.Kernel = KernelAuto
	autoCfg.Kernel = KernelAuto
	rebuilt, err = sp.Apply(m, autoCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Kernel == KernelAuto {
		t.Fatal("Apply left a legacy plan unresolved")
	}

	// A corrupt kernel field in the flags is rejected at read time.
	raw := buf.Bytes()
	bad := append([]byte(nil), raw...)
	bad[13] |= 0x0F // flags bits 8-11 = 15: out of range
	if _, err := ReadPlan(bytes.NewReader(bad)); !errors.Is(err, ErrPlanFormat) {
		t.Fatalf("corrupt kernel field accepted: %v", err)
	}
}

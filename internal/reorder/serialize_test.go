package reorder

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/synth"
)

func TestPlanRoundTrip(t *testing.T) {
	m, err := synth.Clustered(synth.ClusterParams{
		Rows: 512, Cols: 512, Clusters: 64, PrototypeNNZ: 12,
		Keep: 0.8, Noise: 1, Seed: 3, Scrambled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Force = true
	plan, err := Preprocess(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	sp, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Rows != m.Rows || sp.Round1Applied != plan.Round1Applied || sp.Round2Applied != plan.Round2Applied {
		t.Fatalf("metadata mismatch: %+v", sp)
	}
	for i := range plan.RowPerm {
		if sp.RowPerm[i] != plan.RowPerm[i] || sp.RestOrder[i] != plan.RestOrder[i] {
			t.Fatalf("permutation mismatch at %d", i)
		}
	}

	// Applying the saved plan reproduces the tiled execution exactly.
	rebuilt, err := sp.Apply(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Reordered.Equal(plan.Reordered) {
		t.Fatalf("rebuilt reordered matrix differs")
	}
	if rebuilt.Tiled.NNZDense() != plan.Tiled.NNZDense() {
		t.Fatalf("rebuilt tiling differs: %d vs %d", rebuilt.Tiled.NNZDense(), plan.Tiled.NNZDense())
	}
	x := dense.NewRandom(m.Cols, 8, 1)
	a, b := dense.New(m.Rows, x.Cols), dense.New(m.Rows, x.Cols)
	if err := kernels.SpMMASpTIntoCtx(context.Background(), a, plan.Tiled, x); err != nil {
		t.Fatal(err)
	}
	if err := kernels.SpMMASpTIntoCtx(context.Background(), b, rebuilt.Tiled, x); err != nil {
		t.Fatal(err)
	}
	if dense.MaxAbsDiff(a, b) != 0 {
		t.Fatalf("rebuilt plan computes different results")
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     {1, 2, 3},
		"bad magic": append([]byte{0, 0, 0, 0}, make([]byte, 8)...),
	}
	for name, in := range cases {
		if _, err := ReadPlan(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Valid header, truncated permutation.
	var buf bytes.Buffer
	buf.Write([]byte{0x31, 0x50, 0x52, 0x52}) // magic LE
	buf.Write([]byte{4, 0, 0, 0})             // rows = 4
	buf.Write([]byte{3, 0, 0, 0})             // flags
	buf.Write([]byte{0, 0, 0, 0})             // only one perm entry
	if _, err := ReadPlan(&buf); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated file accepted: %v", err)
	}
}

// recomputePlanCRC rewrites the CRC32 footer of a serialised v1 plan in
// place, so tests can mutate header fields and still present a file
// whose checksum is clean — isolating the semantic check under test
// from the integrity check.
func recomputePlanCRC(b []byte) {
	off := len(b) - 8
	binary.LittleEndian.PutUint32(b[off:], crc32.ChecksumIEEE(b[:off]))
}

// TestPlanFlagBitFields covers the upper flag-word fields end to end:
// the kernel choice (bits 8-11) and structural epoch (bits 12-31)
// round-trip, the epoch is truncated to its 20 stored bits, and
// reserved bits 2-7 are rejected even when the CRC has been recomputed
// — a structurally perfect file from a future format revision must
// read as corruption, never be half-understood.
func TestPlanFlagBitFields(t *testing.T) {
	p := &Plan{
		RowPerm:       []int32{2, 0, 1},
		RestOrder:     []int32{1, 2, 0},
		Round1Applied: true,
		Kernel:        KernelMerge,
		Cfg:           Config{Epoch: 0xABCDE},
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	sp, err := ReadPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kernel != KernelMerge || sp.Epoch != 0xABCDE || !sp.Round1Applied || sp.Round2Applied {
		t.Fatalf("flag fields did not round-trip: %+v", sp)
	}

	// An epoch over 20 bits is stored truncated (documented by the
	// format comment; Apply compares the truncated values).
	var big bytes.Buffer
	p.Cfg.Epoch = 0x1FFFFF
	if err := WritePlan(&big, p); err != nil {
		t.Fatal(err)
	}
	if sp, err := ReadPlan(&big); err != nil {
		t.Fatal(err)
	} else if sp.Epoch != 0xFFFFF {
		t.Fatalf("epoch stored as %#x, want low 20 bits %#x", sp.Epoch, 0xFFFFF)
	}

	for _, bits := range []byte{0x04, 0x80, 0xFC} {
		in := withReservedFlagBits(raw, bits)
		if _, err := ReadPlan(bytes.NewReader(in)); !errors.Is(err, ErrPlanFormat) ||
			!strings.Contains(err.Error(), "reserved") {
			t.Errorf("reserved bits %#x: got %v, want reserved-bit ErrPlanFormat", bits, err)
		}
	}

	// An out-of-range kernel nibble is rejected even with a clean CRC.
	badKernel := append([]byte(nil), raw...)
	badKernel[13] = 0x0F // kernel nibble = 15, past kernelCount
	recomputePlanCRC(badKernel)
	if _, err := ReadPlan(bytes.NewReader(badKernel)); !errors.Is(err, ErrPlanFormat) ||
		!strings.Contains(err.Error(), "kernel") {
		t.Errorf("invalid kernel nibble: got %v, want kernel ErrPlanFormat", err)
	}
}

func TestReadPlanRejectsNonPermutation(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x31, 0x50, 0x52, 0x52})
	buf.Write([]byte{2, 0, 0, 0})
	buf.Write([]byte{0, 0, 0, 0})
	// RowPerm = [0, 0] (invalid), RestOrder = [0, 1].
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	buf.Write([]byte{0, 0, 0, 0, 1, 0, 0, 0})
	if _, err := ReadPlan(&buf); err == nil {
		t.Fatalf("non-permutation accepted")
	}
}

// TestApplyRejectsTamperedPlan checks that a SavedPlan whose
// permutations were corrupted after deserialisation (or constructed by
// hand) fails Apply with a wrapped ErrPlanFormat instead of panicking
// later in InversePermutation.
func TestApplyRejectsTamperedPlan(t *testing.T) {
	m, err := synth.Uniform(16, 16, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mkPlan := func() *SavedPlan {
		sp := &SavedPlan{Rows: 16}
		for i := int32(0); i < 16; i++ {
			sp.RowPerm = append(sp.RowPerm, i)
			sp.RestOrder = append(sp.RestOrder, i)
		}
		return sp
	}
	cases := map[string]func(*SavedPlan){
		"duplicate row":      func(sp *SavedPlan) { sp.RowPerm[3] = sp.RowPerm[4] },
		"out of range row":   func(sp *SavedPlan) { sp.RowPerm[0] = 16 },
		"negative row":       func(sp *SavedPlan) { sp.RowPerm[0] = -1 },
		"short rest order":   func(sp *SavedPlan) { sp.RestOrder = sp.RestOrder[:8] },
		"duplicate rest row": func(sp *SavedPlan) { sp.RestOrder[0] = 5; sp.RestOrder[1] = 5 },
	}
	for name, corrupt := range cases {
		sp := mkPlan()
		corrupt(sp)
		_, err := sp.Apply(m, DefaultConfig())
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrPlanFormat) {
			t.Errorf("%s: error not wrapped as ErrPlanFormat: %v", name, err)
		}
	}
	// The untampered plan still applies.
	if _, err := mkPlan().Apply(m, DefaultConfig()); err != nil {
		t.Fatalf("valid identity plan rejected: %v", err)
	}
}

func TestApplyRowCountMismatch(t *testing.T) {
	m, err := synth.Uniform(64, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PreprocessNR(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	sp, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	other, err := synth.Uniform(32, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Apply(other, DefaultConfig()); err == nil {
		t.Fatalf("row-count mismatch accepted")
	}
}

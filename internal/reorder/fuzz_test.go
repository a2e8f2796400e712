package reorder

import (
	"bytes"
	"testing"

	"repro/internal/sparse"
)

// withReservedFlagBits returns a copy of a serialised v1 plan with the
// given reserved flag bits ORed into the flag word and the CRC footer
// recomputed, so everything except the reserved-bits check sees a
// perfectly intact file.
func withReservedFlagBits(plan []byte, bits byte) []byte {
	b := append([]byte(nil), plan...)
	b[12] |= bits // flag word is little-endian at offset 12; bits 2-7 live in its low byte
	recomputePlanCRC(b)
	return b
}

// FuzzReadPlan drives the plan deserialiser with arbitrary bytes: it
// must never panic or over-allocate, and anything accepted must carry
// valid permutations and a resolvable kernel choice.
func FuzzReadPlan(f *testing.F) {
	// A valid legacy v0-header plan (2 rows) as seed.
	var valid bytes.Buffer
	valid.Write([]byte{0x31, 0x50, 0x52, 0x52}) // v0 magic
	valid.Write([]byte{2, 0, 0, 0})             // rows
	valid.Write([]byte{3, 0, 0, 0})             // flags
	valid.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0}) // RowPerm [1,0]
	valid.Write([]byte{0, 0, 0, 0, 1, 0, 0, 0}) // RestOrder [0,1]
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x50, 0x52, 0x52, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	// A valid v1 plan (current format, CRC footer), plus truncated and
	// bit-flipped mutations of it.
	var v1 bytes.Buffer
	if err := WritePlan(&v1, &Plan{
		RowPerm:       []int32{2, 0, 1},
		RestOrder:     []int32{1, 2, 0},
		Round1Applied: true,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v1.Bytes()[:len(v1.Bytes())-5]) // truncated mid-footer
	f.Add(v1.Bytes()[:17])                // truncated mid-permutation
	flipped := append([]byte(nil), v1.Bytes()...)
	flipped[20] ^= 0x10 // bit flip inside RowPerm
	f.Add(flipped)
	// Seeds exercising the upper flag-word fields: the kernel choice in
	// bits 8-11 and the structural epoch in bits 12-31, alone and
	// together, including the all-ones epoch boundary.
	for _, p := range []*Plan{
		{RowPerm: []int32{1, 0, 2}, RestOrder: []int32{0, 2, 1}, Round1Applied: true, Kernel: KernelMerge},
		{RowPerm: []int32{2, 1, 0}, RestOrder: []int32{0, 1, 2}, Kernel: KernelRowWise, Cfg: Config{Epoch: 7}},
		{RowPerm: []int32{1, 0, 2}, RestOrder: []int32{0, 2, 1}, Kernel: KernelELLHybrid, Cfg: Config{Epoch: 0xABCDE}},
		{RowPerm: []int32{0, 1}, RestOrder: []int32{1, 0}, Round1Applied: true, Round2Applied: true,
			Kernel: KernelASpT, Cfg: Config{Epoch: 0xFFFFF}},
	} {
		var b bytes.Buffer
		if err := WritePlan(&b, p); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	// Reserved bits 2-7 set, with the CRC recomputed so only the flag
	// check can reject it — the deserialiser must not half-understand a
	// future format revision.
	f.Add(withReservedFlagBits(v1.Bytes(), 0x04))
	f.Add(withReservedFlagBits(v1.Bytes(), 0xFC))
	f.Fuzz(func(t *testing.T, in []byte) {
		sp, err := ReadPlan(bytes.NewReader(in))
		if err != nil {
			return
		}
		if !sp.Kernel.Valid() {
			t.Fatalf("accepted plan with invalid kernel %v", sp.Kernel)
		}
		// Applied to a matrix of its row count, an accepted plan serves
		// the stored row-wise or merge choice, or the autotuner's pick
		// for any other stored value.
		if sp.Rows <= 64 {
			cols := make([][]int32, sp.Rows)
			vals := make([][]float32, sp.Rows)
			for i := range cols {
				cols[i], vals[i] = []int32{int32(i)}, []float32{1}
			}
			m, err := sparse.FromRows(sp.Rows, max(sp.Rows, 1), cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Epoch = sp.Epoch
			plan, err := sp.Apply(m, cfg)
			if err != nil {
				t.Fatalf("Apply of an accepted plan: %v", err)
			}
			want := ChooseKernel(plan.Features)
			if sp.Kernel == KernelRowWise || sp.Kernel == KernelMerge {
				want = sp.Kernel
			}
			if plan.Kernel != want {
				t.Fatalf("stored %v applied as %v, want %v", sp.Kernel, plan.Kernel, want)
			}
		}
		if len(sp.RowPerm) != sp.Rows || len(sp.RestOrder) != sp.Rows {
			t.Fatalf("accepted plan with inconsistent lengths")
		}
		// Accepted permutations must be bijective (ReadPlan checks this;
		// re-verify independently).
		seen := make([]bool, sp.Rows)
		for _, v := range sp.RowPerm {
			if v < 0 || int(v) >= sp.Rows || seen[v] {
				t.Fatalf("accepted non-permutation RowPerm")
			}
			seen[v] = true
		}
	})
}

package dense

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("not zeroed")
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted negative dimensions")
		}
	}()
	New(-1, 2)
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At/Set broken")
	}
	r := m.Row(1)
	if r[2] != 7 {
		t.Fatalf("Row slice wrong: %v", r)
	}
	r[0] = 3 // mutation visible
	if m.At(1, 0) != 3 {
		t.Fatalf("Row not aliased")
	}
}

func TestNewRandomDeterministic(t *testing.T) {
	a := NewRandom(5, 5, 42)
	b := NewRandom(5, 5, 42)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatalf("same seed differs")
	}
	c := NewRandom(5, 5, 43)
	if MaxAbsDiff(a, c) == 0 {
		t.Fatalf("different seeds identical")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v out of [-1,1)", v)
		}
	}
}

func TestCloneZeroFill(t *testing.T) {
	m := NewRandom(3, 3, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatalf("clone shares storage")
	}
	m.Fill(2)
	for _, v := range m.Data {
		if v != 2 {
			t.Fatalf("Fill failed")
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero failed")
		}
	}
}

func TestPermuteRows(t *testing.T) {
	m := New(3, 2)
	for i := 0; i < 3; i++ {
		m.Set(i, 0, float32(i))
	}
	p, err := m.PermuteRows([]int32{2, 0, 1})
	if err != nil {
		t.Fatalf("PermuteRows: %v", err)
	}
	if p.At(0, 0) != 2 || p.At(1, 0) != 0 || p.At(2, 0) != 1 {
		t.Fatalf("permutation wrong: %v", p.Data)
	}
	if _, err := m.PermuteRows([]int32{0, 0, 1}); err == nil {
		t.Fatalf("accepted non-permutation")
	}
	if _, err := m.PermuteRows([]int32{0}); err == nil {
		t.Fatalf("accepted short permutation")
	}
}

func TestOverlap(t *testing.T) {
	m := New(4, 2)
	head := &Matrix{Rows: 2, Cols: 2, Data: m.Data[:4]}
	tail := &Matrix{Rows: 2, Cols: 2, Data: m.Data[4:]}
	mid := &Matrix{Rows: 1, Cols: 2, Data: m.Data[3:5]}
	for _, c := range []struct {
		name string
		a, b *Matrix
		want bool
	}{
		{"same", m, m, true},
		{"prefix", m, head, true},
		{"straddle", head, mid, true},
		{"straddle reversed", tail, mid, true},
		{"adjacent", head, tail, false},
		{"separate", m, New(4, 2), false},
		{"empty", m, &Matrix{}, false},
	} {
		if got := Overlap(c.a, c.b); got != c.want {
			t.Errorf("%s: Overlap = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMaxAbsDiffPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("shape mismatch accepted")
		}
	}()
	MaxAbsDiff(New(1, 2), New(2, 1))
}

func TestAlmostEqual(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	b.Set(1, 1, 1e-7)
	if !AlmostEqual(a, b, 1e-6) {
		t.Fatalf("AlmostEqual too strict")
	}
	if AlmostEqual(a, b, 1e-9) {
		t.Fatalf("AlmostEqual too lax")
	}
	if AlmostEqual(a, New(1, 4), 1) {
		t.Fatalf("AlmostEqual ignored shape")
	}
}

// Property: permuting by p then inverse(p) restores the matrix.
func TestPropertyPermuteInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		m := NewRandom(n, 1+rng.Intn(8), seed)
		perm := make([]int32, n)
		inv := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i, p := range perm {
			inv[p] = int32(i)
		}
		pm, err := m.PermuteRows(perm)
		if err != nil {
			return false
		}
		back, err := pm.PermuteRows(inv)
		if err != nil {
			return false
		}
		return MaxAbsDiff(m, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Package dense provides the row-major dense matrix used as the second
// operand of SpMM and SDDMM. Storage is a single contiguous float32 slice,
// matching how the GPU kernels in the paper address X and Y.
package dense

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Matrix is a dense row-major matrix: element (i, j) lives at
// Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewRandom returns a rows×cols matrix with entries uniform in [-1, 1),
// deterministically seeded.
func NewRandom(rows, cols int, seed int64) *Matrix {
	m := New(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a sub-slice of Data (mutations are visible).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// PermuteRows returns a new matrix whose row i is row perm[i] of m,
// mirroring sparse.PermuteRows' convention.
func (m *Matrix) PermuteRows(perm []int32) (*Matrix, error) {
	if len(perm) != m.Rows {
		return nil, fmt.Errorf("dense: permutation length %d for %d rows", len(perm), m.Rows)
	}
	out := New(m.Rows, m.Cols)
	seen := make([]bool, m.Rows)
	for i, p := range perm {
		if p < 0 || int(p) >= m.Rows || seen[p] {
			return nil, fmt.Errorf("dense: invalid permutation at position %d (value %d)", i, p)
		}
		seen[p] = true
		copy(out.Row(i), m.Row(int(p)))
	}
	return out, nil
}

// Overlap reports whether a and b share any element of storage. A
// kernel that reads b's rows while it writes a's cannot tolerate that.
func Overlap(a, b *Matrix) bool {
	if len(a.Data) == 0 || len(b.Data) == 0 {
		return false
	}
	const size = unsafe.Sizeof(float32(0))
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a.Data)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b.Data)))
	return a0 < b0+uintptr(len(b.Data))*size && b0 < a0+uintptr(len(a.Data))*size
}

// PermuteRowsInto writes src's rows into dst with dst row i = src row
// perm[i], the allocation-free form of PermuteRows. perm must be a
// permutation of [0, src.Rows) (validate with sparse.IsPermutation if it
// is untrusted); out-of-range entries error, but bijectivity is not
// re-checked on this hot path, so a duplicated in-range entry silently
// duplicates a row. dst and src must not alias.
func PermuteRowsInto(dst, src *Matrix, perm []int32) error {
	if len(perm) != src.Rows {
		return fmt.Errorf("dense: permutation length %d for %d rows", len(perm), src.Rows)
	}
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		return fmt.Errorf("dense: PermuteRowsInto shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols)
	}
	for i, p := range perm {
		if p < 0 || int(p) >= src.Rows {
			return fmt.Errorf("dense: invalid permutation at position %d (value %d)", i, p)
		}
		copy(dst.Row(i), src.Row(int(p)))
	}
	return nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shaped matrices. It panics on a shape mismatch (programming
// error in tests).
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	max := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// AlmostEqual reports whether all elements differ by at most tol.
func AlmostEqual(a, b *Matrix, tol float64) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && MaxAbsDiff(a, b) <= tol
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String summarises the matrix without dumping its contents.
func (m *Matrix) String() string {
	return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
}

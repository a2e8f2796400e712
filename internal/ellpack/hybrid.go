package ellpack

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dense"
	"repro/internal/gpusim"
	"repro/internal/sparse"
)

// Hybrid is the HYB format (the ELL+COO hybrid popularised by cuSPARSE
// and Bell & Garland's SpMV work, cited in the paper's related work):
// each row's first `Width` entries go into an ELL slab sized for the
// *typical* row, and the overflow of long rows spills into a COO list.
// HYB keeps ELL's coalescing without its worst-case padding.
type Hybrid struct {
	ELL *Matrix
	// Spill holds the overflow entries in row-major COO order.
	Spill []sparse.Entry

	// cum[i] is the total stored work (ELL + spill nonzeros) of rows
	// [0, i) — the source matrix's RowPtr, since the two partitions
	// exactly tile its nonzeros. Built by FromCSRHybrid; see CumWork.
	cum []int64
}

// DefaultHybridQuantile is the row-length quantile used to size the ELL
// slab (Bell & Garland use roughly the point where ≥ 1/3 of rows are
// full; the 0.75 quantile is a common practical choice).
const DefaultHybridQuantile = 0.75

// FromCSRHybrid builds a HYB matrix with the slab width set to the given
// row-length quantile (0 < q <= 1; 0 selects DefaultHybridQuantile).
func FromCSRHybrid(m *sparse.CSR, q float64) (*Hybrid, error) {
	if q == 0 {
		q = DefaultHybridQuantile
	}
	// Negated range check so NaN (for which both q < 0 and q > 1 are
	// false) is rejected instead of flowing into the platform-dependent
	// float->int conversion below.
	if !(q > 0 && q <= 1) {
		return nil, fmt.Errorf("ellpack: hybrid quantile %v out of (0, 1]", q)
	}
	lens := make([]int, m.Rows)
	for i := range lens {
		lens[i] = m.RowLen(i)
	}
	sort.Ints(lens)
	width := 0
	if m.Rows > 0 {
		// Nearest-rank (ceiling) quantile: the q-quantile of n sorted
		// values is the ⌈q·n⌉-th smallest. Truncating instead picks the
		// floor rank, which with 2 rows and q=0.75 selects the *shorter*
		// row and spills half the matrix.
		idx := int(math.Ceil(q*float64(m.Rows))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= m.Rows {
			idx = m.Rows - 1
		}
		width = lens[idx]
	}

	h := &Hybrid{ELL: &Matrix{
		Rows:   m.Rows,
		NCols:  m.Cols,
		Width:  width,
		RowLen: make([]int32, m.Rows),
		Cols:   make([]int32, m.Rows*width),
		Vals:   make([]float32, m.Rows*width),
	}}
	for i := range h.ELL.Cols {
		h.ELL.Cols[i] = -1
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.RowCols(i), m.RowVals(i)
		n := len(cols)
		if n > width {
			n = width
		}
		h.ELL.RowLen[i] = int32(n)
		for s := 0; s < n; s++ {
			h.ELL.Cols[s*m.Rows+i] = cols[s]
			h.ELL.Vals[s*m.Rows+i] = vals[s]
		}
		for s := n; s < len(cols); s++ {
			h.Spill = append(h.Spill, sparse.Entry{Row: int32(i), Col: cols[s], Val: vals[s]})
		}
	}
	h.cum = make([]int64, m.Rows+1)
	for i := 0; i <= m.Rows; i++ {
		h.cum[i] = int64(m.RowPtr[i])
	}
	return h, nil
}

// CumWork returns the total stored work (ELL + spill entries) of rows
// [0, i) — the cumulative-work signal the nnz-balanced executor
// partitions on. Hand-assembled Hybrids without the prefix array fall
// back to the ELL part's estimate (balance only; correctness is
// unaffected).
func (h *Hybrid) CumWork(i int) int64 {
	if h.cum != nil {
		return h.cum[i]
	}
	return h.ELL.CumWork(i)
}

// NNZ returns the total stored nonzeros (ELL + spill).
func (h *Hybrid) NNZ() int { return h.ELL.NNZ() + len(h.Spill) }

// SpillRatio returns the fraction of nonzeros in the COO part.
func (h *Hybrid) SpillRatio() float64 {
	if h.NNZ() == 0 {
		return 0
	}
	return float64(len(h.Spill)) / float64(h.NNZ())
}

// SpMM computes Y = H·X natively.
func (h *Hybrid) SpMM(x *dense.Matrix) (*dense.Matrix, error) {
	y, err := h.ELL.SpMM(x)
	if err != nil {
		return nil, err
	}
	for _, e := range h.Spill {
		xr := x.Row(int(e.Col))
		yr := y.Row(int(e.Row))
		for k := range yr {
			yr[k] += e.Val * xr[k]
		}
	}
	return y, nil
}

// SimulateSpMM models the two HYB kernels: the ELL slab kernel (padded
// structure, coalesced) followed by a COO kernel over the spill (one X
// row read and one Y row read-modify-write per spilled entry, atomically
// accumulated on real hardware).
func SimulateSpMMHybrid(dev gpusim.Config, h *Hybrid, k int) (*gpusim.Stats, error) {
	st, err := SimulateSpMM(dev, h.ELL, k)
	if err != nil {
		return nil, err
	}
	st.Kernel = "spmm-hyb"
	rowBytes := float64(k * dev.ElemBytes)
	// COO spill: entry stream and one X row per entry; COO kernels use
	// segmented reduction, so each distinct spilled row's Y is
	// read-modified-written once, not once per entry.
	spill := float64(len(h.Spill))
	spilledRows := make(map[int32]struct{}, len(h.Spill))
	for _, e := range h.Spill {
		spilledRows[e.Row] = struct{}{}
	}
	structB := spill * float64(2*dev.IndexBytes+dev.ElemBytes)
	xB := spill * rowBytes
	yB := float64(len(spilledRows)) * 2 * rowBytes
	st.DRAMBytes += structB + xB + yB
	st.L2Bytes += structB + xB + yB
	st.StructBytes += structB
	st.XBytes += xB
	st.YBytes += yB
	st.Refinalize(dev)
	return st, nil
}

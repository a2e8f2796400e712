package reorder

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/par"
	"repro/internal/sparse"
)

// walkChunkRows is the row-chunk size of the value walk: large enough
// that per-chunk scheduling is noise, small enough that a 16k-row
// matrix still splits across workers.
const walkChunkRows = 1024

// WithValues re-skins the plan for m, a matrix with the plan's sparsity
// structure but new nonzero values: the result shares every structure
// array (permutations, RowPtr/ColIdx, tiles, panels) with p and owns
// only its three value arrays — Reordered.Val, Tiled.TileVal and
// Tiled.Rest.Val. It is one O(nnz) walk over the reordered rows: row i
// reads source row RowPerm[i] of m once, copies it into Reordered.Val,
// and splits it into tile and leftover values with the same two-pointer
// test on TileCol that tiling used (both partitions keep the row's
// column order). No hashing, LSH, clustering or tiling runs.
//
// Every read of m is range-checked, each row's length must match the
// plan's and its tile plus rest slot counts, and a row split across
// both partitions must consume its tile columns exactly; a
// failed check (or a panic inside the walk) returns an error wrapping
// integrity.ErrPlanInvariant and no plan. The returned plan's Stages are
// zero except Permute, which holds the walk's time (as does Preprocess).
//
// This is also the "integrity.corrupt.gather" fault site: an armed
// CorruptAt hook swaps one in-range pair of values in each produced
// array, a corruption every structural gate passes and only shadow
// verification can catch.
func (p *Plan) WithValues(m *sparse.CSR, workers int) (*Plan, error) {
	start := time.Now()
	re, t := p.Reordered, p.Tiled
	if m.Rows != re.Rows || len(m.RowPtr) != m.Rows+1 || len(p.RowPerm) != re.Rows {
		return nil, fmt.Errorf("%w: re-skin of a %d-row plan with a %d-row matrix",
			integrity.ErrPlanInvariant, re.Rows, m.Rows)
	}
	val := make([]float32, len(re.ColIdx))
	tileVal := make([]float32, len(t.TileCol))
	restVal := make([]float32, len(t.Rest.ColIdx))
	if len(val) < 32<<10 {
		workers = 1
	}
	err := par.ForChunksCtx(nil, re.Rows, walkChunkRows, workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			src := int(p.RowPerm[i])
			if src < 0 || src >= m.Rows {
				return fmt.Errorf("%w: row %d reads source row %d of %d",
					integrity.ErrPlanInvariant, i, src, m.Rows)
			}
			s0, s1 := m.RowPtr[src], m.RowPtr[src+1]
			if s0 < 0 || s1 < s0 || int(s1) > len(m.Val) {
				return fmt.Errorf("%w: source row %d spans [%d,%d) of %d values",
					integrity.ErrPlanInvariant, src, s0, s1, len(m.Val))
			}
			d0 := re.RowPtr[i]
			if s1-s0 != re.RowPtr[i+1]-d0 {
				return fmt.Errorf("%w: row %d has %d values, source row %d has %d",
					integrity.ErrPlanInvariant, i, re.RowPtr[i+1]-d0, src, s1-s0)
			}
			row := m.Val[s0:s1]
			copy(val[d0:], row)
			tcols := t.TileCol[t.TileRowPtr[i]:t.TileRowPtr[i+1]]
			tvals := tileVal[t.TileRowPtr[i]:t.TileRowPtr[i+1]]
			rvals := restVal[t.Rest.RowPtr[i]:t.Rest.RowPtr[i+1]]
			if len(tvals)+len(rvals) != len(row) {
				return fmt.Errorf("%w: row %d splits into %d tile and %d rest slots, has %d values",
					integrity.ErrPlanInvariant, i, len(tvals), len(rvals), len(row))
			}
			// A row wholly in one partition copies verbatim; a mixed row
			// takes the two-pointer walk against its tile columns.
			switch {
			case len(tvals) == 0:
				copy(rvals, row)
				continue
			case len(rvals) == 0:
				copy(tvals, row)
				continue
			}
			cols := re.ColIdx[d0 : int(d0)+len(row)]
			tp, rp := 0, 0
			for j, v := range row {
				if tp < len(tcols) && tcols[tp] == cols[j] {
					tvals[tp] = v
					tp++
				} else if rp < len(rvals) {
					rvals[rp] = v
					rp++
				} else {
					return fmt.Errorf("%w: row %d overflows its tile/rest split",
						integrity.ErrPlanInvariant, i)
				}
			}
			if tp != len(tvals) {
				return fmt.Errorf("%w: row %d left %d tile slots unfilled",
					integrity.ErrPlanInvariant, i, len(tvals)-tp)
			}
		}
		return nil
	})
	if err != nil {
		if !errors.Is(err, integrity.ErrPlanInvariant) {
			err = fmt.Errorf("%w: %v", integrity.ErrPlanInvariant, err)
		}
		return nil, err
	}
	if errors.Is(faultinject.Fire("integrity.corrupt.gather"), faultinject.ErrCorrupt) {
		hit := false
		for _, v := range [][]float32{val, tileVal, restVal} {
			if n := len(v); n >= 3 && v[n/3] != v[2*n/3] {
				v[n/3], v[2*n/3] = v[2*n/3], v[n/3]
				hit = true
			}
		}
		if hit {
			integrity.CorruptionInjected()
		}
	}
	np := *p
	np.Reordered = &sparse.CSR{Rows: re.Rows, Cols: re.Cols, RowPtr: re.RowPtr, ColIdx: re.ColIdx, Val: val}
	tiled := *t
	tiled.Src = np.Reordered
	tiled.TileVal = tileVal
	rest := *t.Rest
	rest.Val = restVal
	tiled.Rest = &rest
	np.Tiled = &tiled
	d := max(time.Since(start), time.Nanosecond)
	np.Stages = StageTimings{Permute: d}
	np.Preprocess = d
	return &np, nil
}

package kernels

// Merge-based (nonzero-split) SpMM, after "Merge-Based Parallel Sparse
// Matrix-Vector Multiplication" (Merrill & Garland) and the nonzero-split
// SpMM of "Design Principles for Sparse Matrix Multiplication on the
// GPU" (Yang, Buluç & Owens, cited in PAPERS.md).
//
// The row-wise kernel balances *chunks* by nonzeros but still assigns
// whole rows to chunks, so a hub row holding half the matrix serialises
// inside one chunk. The merge kernel removes the row granularity
// entirely: the flat nonzero range [0, nnz) is cut into equal slices,
// and a row crossing a cut is computed piecewise — each chunk
// accumulates the fragment it owns, head fragments land in a per-chunk
// carry slot, and a serial O(chunks·K) fix-up adds the carries back.
// Per-chunk work is bounded by ⌈nnz/chunks⌉ regardless of skew.
//
// Ownership: for each slice boundary b, ownStart(b) is the first row
// whose output this side of the cut owns — rowOf(b) when row rowOf(b)
// starts exactly at b, rowOf(b)+1 otherwise (its head belongs to the
// chunk on the left). Chunk c owns rows [ownStart(b_c), ownStart(b_c+1)),
// accumulating and writing them directly; the spans of all chunks tile
// [0, rows) exactly (boundaries 0 and nnz are pinned to rows 0 and
// Rows), so every output row — including empty ones — is written exactly
// once, with no atomics and no write races. The only cross-chunk rows
// are chunk heads whose row began in an earlier slice: their partial
// sums go to the chunk's carry slot and are added serially after the
// join, in chunk order.

import (
	"context"
	"runtime"
	"time"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// mergeChunk is one slice of the flat nonzero range: entries [s, e) of
// ColIdx/Val, with firstRow = rowOf(s) and the owned row span
// [zLo, zHi) this chunk writes directly.
type mergeChunk struct {
	s, e     int
	firstRow int
	zLo, zHi int
}

// SpMMMergeIntoCtx computes Y = S·X into the caller-provided y
// (S.Rows × X.Cols), overwriting its contents, with cooperative
// cancellation between chunks and panic isolation (a kernel panic
// returns as a *par.PanicError). On error the output contents are
// unspecified. At steady state the call performs no heap allocations.
func SpMMMergeIntoCtx(ctx context.Context, y *dense.Matrix, s *sparse.CSR, x *dense.Matrix) error {
	return SpMMMergeIntoRowsCtx(ctx, y, nil, s, x)
}

// SpMMMergeIntoRowsCtx is SpMMMergeIntoCtx writing row i of S·X to row
// dst[i] of y (see checkRowMap); owned rows and carry fix-ups go through
// the same map.
func SpMMMergeIntoRowsCtx(ctx context.Context, y *dense.Matrix, dst []int32, s *sparse.CSR, x *dense.Matrix) error {
	if err := checkSpMMShapes(s, x); err != nil {
		return err
	}
	if err := checkSpMMOut(s, x, y); err != nil {
		return err
	}
	if err := checkRowMap(dst, s.Rows); err != nil {
		return err
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan("kernel_spmm_merge")
	j := getJob()
	j.ctx = ctx
	j.attr = attrSpMMMerge
	j.csr, j.x, j.y, j.dst = s, x, y, dst
	var err error
	if s.NNZ() == 0 {
		// Nothing to split on: the row-wise kernel degenerates to a
		// parallel clear of every output row, which is exactly the answer.
		j.run = runSpMMRowWise
		err = j.dispatch(s.Rows, func(int) int64 { return 0 })
	} else {
		j.run = runSpMMMerge
		workers := mergeWorkers(s.NNZ())
		buildMergeChunks(j, workers*chunksPerWorker)
		err = j.dispatchChunks(workers)
		if err == nil {
			mergeFixup(j)
		}
	}
	if err == nil {
		attrSpMMMerge.recordPass(j, s.NNZ(), s.Rows, x.Cols)
	}
	putJob(j)
	sp.End()
	kernelSpMMMerge.ObserveSince(start)
	return err
}

// mergeWorkers bounds dispatch width by available parallelism and the
// nonzero count (a chunk needs at least one nonzero to be useful).
func mergeWorkers(nnz int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > nnz {
		workers = nnz
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// buildMergeChunks slices [0, nnz) into up to nchunks equal parts and
// precomputes each chunk's first row and owned span. The generic chunk
// list is filled with {i, i+1} indices so the executor's stealing loop
// claims merge chunks without knowing their shape. Carry state is sized
// for nchunks slots of K floats each; all slices retain capacity across
// pooled reuse, so a steady-state call allocates nothing.
func buildMergeChunks(j *job, nchunks int) {
	s := j.csr
	nnz := s.NNZ()
	if nchunks > nnz {
		nchunks = nnz
	}
	if nchunks < 1 {
		nchunks = 1
	}
	k := j.x.Cols
	j.mergeChunks = j.mergeChunks[:0]
	j.chunks = j.chunks[:0]
	j.carryRow = growInt32(j.carryRow, nchunks)
	j.carryVal = growFloat32(j.carryVal, nchunks*k)
	prevB := 0
	prevRow := rowOfNZ(s.RowPtr, 0)
	prevOwn := 0 // boundary 0 owns from row 0: leading empty rows included
	for c := 0; c < nchunks; c++ {
		b := int(int64(nnz) * int64(c+1) / int64(nchunks))
		var row, own int
		if c == nchunks-1 {
			row, own = s.Rows, s.Rows // trailing empty rows included
		} else {
			row = rowOfNZ(s.RowPtr, b)
			own = row
			if int(s.RowPtr[row]) < b {
				own = row + 1 // row's head belongs to this chunk
			}
		}
		j.mergeChunks = append(j.mergeChunks, mergeChunk{
			s: prevB, e: b, firstRow: prevRow, zLo: prevOwn, zHi: own,
		})
		j.chunks = append(j.chunks, rowChunk{c, c + 1})
		j.carryRow[c] = -1
		prevB, prevRow, prevOwn = b, row, own
	}
}

// rowOfNZ returns the row containing flat nonzero index k: the largest
// i with rowPtr[i] <= k. Runs of equal rowPtr entries (empty rows)
// resolve to the last duplicate, the row that actually stores entry k.
func rowOfNZ(rowPtr []int32, k int) int {
	lo, hi := 0, len(rowPtr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(rowPtr[mid]) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

func runSpMMMerge(j *job, lo, hi int) {
	s, xd := j.csr, j.x.Data
	k := j.x.Cols
	pairs := sliceRun(s.ColIdx, s.Val)
	for ci := lo; ci < hi; ci++ {
		mc := j.mergeChunks[ci]
		if r := mc.firstRow; int(s.RowPtr[r]) < mc.s {
			// Head fragment of a row owned by an earlier chunk: its partial
			// sums go to this chunk's private carry slot, fixed up after
			// the join.
			end := min(int(s.RowPtr[r+1]), mc.e)
			spmmRun(j.carryVal[ci*k:(ci+1)*k], xd, sliceRun(s.ColIdx[mc.s:end], s.Val[mc.s:end]), false)
			j.carryRow[ci] = int32(r)
		}
		// Owned rows start at or after mc.s and go in one strip call,
		// empty ones written as zeros. Only the last can run past mc.e:
		// it is cut there (its tail is the next chunk's head fragment).
		whole := mc.zHi
		if whole > mc.zLo && int(s.RowPtr[whole]) > mc.e {
			whole--
		}
		spmmRows(j.y.Data, xd, k, j.dst, s.RowPtr, mc.zLo, whole, pairs, false)
		if whole < mc.zHi {
			a := int(s.RowPtr[whole])
			spmmRun(j.outRow(whole), xd, sliceRun(s.ColIdx[a:mc.e], s.Val[a:mc.e]), false)
		}
	}
}

// mergeFixup serially folds each chunk's carried head fragment into its
// row. The owning chunk already wrote the row's other fragments, so the
// carry is a pure addition; consecutive chunks inside one hub row each
// contribute their own slot.
func mergeFixup(j *job) {
	k := j.x.Cols
	for c := range j.mergeChunks {
		r := j.carryRow[c]
		if r < 0 {
			continue
		}
		yr := j.outRow(int(r))
		acc := j.carryVal[c*k : (c+1)*k]
		for kk := range yr {
			yr[kk] += acc[kk]
		}
	}
}

// growInt32 resizes b to n entries, reusing capacity when possible.
func growInt32(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}

// growFloat32 resizes b to n entries, reusing capacity when possible.
func growFloat32(b []float32, n int) []float32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float32, n)
}

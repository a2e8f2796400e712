package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro"
)

// The writer is open loop: it acts on a fixed schedule whatever the
// reads are doing, so the background work per run is fixed. It ticks
// every writerTick, sampling the tenant's staleness each tick; every
// slotTicks ticks it performs the next slot of writerCycle. Three of
// the four batches are value-only (the re-skin path through the plan
// cache's gather maps); the fourth replaces rows (overlay, background
// rebuild, swap, fresh trial). The two idle slots after it give the
// rebuild time to land before the next value batch, so value batches
// normally find a clean state and re-skin.
const (
	writerTick   = 10 * time.Millisecond
	slotTicks    = 10
	valueBatch   = 256
	replaceBatch = 32
)

type slotKind int

const (
	slotIdle slotKind = iota
	slotValues
	slotReplace
)

var writerCycle = [6]slotKind{slotReplace, slotIdle, slotIdle, slotValues, slotValues, slotValues}

// liveTarget is what the writer mutates: a live pipeline, reached
// through the Server for served tenants or directly on the library
// path. round and tenant label the trials the writer records.
type liveTarget struct {
	lp     *repro.LivePipeline
	mutate func(context.Context, repro.Mutation) error
	round  int
	tenant string
}

// writerResult is what one writer run measured.
type writerResult struct {
	reskin, overlay, fold []time.Duration
	// stale holds the ticks' staleness samples while a mutation was
	// waiting for its swap. Their median grows linearly with the fold
	// time; a mean over every tick, zeros included, grows with its
	// square and is too noisy to gate on.
	stale []float64
	// dirty are the intervals from a row replacement to the swap that
	// folded it, for classifying concurrent reads.
	dirty    [][2]time.Time
	late     []time.Duration // how late each tick ran
	maxLate  time.Duration
	reskins  int64 // value batches that took the re-skin path
	swaps    int64
	failures int64 // failed rebuild attempts
}

// runWriter runs the schedule until ctx ends. Every mutation is booked
// as an operation and checked against the tenant's matrix afterwards.
// ctx only stops the schedule: a mutation already due runs to
// completion.
func runWriter(ctx context.Context, b *bench, t liveTarget, rng *rand.Rand) *writerResult {
	res := &writerResult{}
	st0 := t.lp.Stats()
	swaps := st0.Swaps
	var replacedAt time.Time
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * writerTick)
		select {
		case <-ctx.Done():
			return res.finish(t.lp, st0, replacedAt)
		case <-time.After(time.Until(due)):
		}
		late := time.Since(due)
		res.late = append(res.late, late)
		res.maxLate = max(res.maxLate, late)
		// Every swap installs a fresh online pipeline whose first read
		// runs a new trial; the tick books each one once it decides.
		b.recordTrial(t.round, t.tenant, t.lp.Online())
		st := t.lp.Stats()
		if st.StalenessSeconds > 0 {
			res.stale = append(res.stale, st.StalenessSeconds)
		}
		if st.Swaps != swaps {
			swaps = st.Swaps
			if !replacedAt.IsZero() {
				now := time.Now()
				res.fold = append(res.fold, now.Sub(replacedAt))
				res.dirty = append(res.dirty, [2]time.Time{replacedAt, now})
				replacedAt = time.Time{}
			}
		}
		if i%slotTicks != 0 {
			continue
		}
		switch writerCycle[(i/slotTicks)%len(writerCycle)] {
		case slotValues:
			mu, check := valueMutation(t.lp.Matrix(), rng)
			d, err := timeIt(func() error { return t.mutate(context.Background(), mu) })
			res.reskin = append(res.reskin, d)
			if err == nil {
				err = check(t.lp.Matrix())
			}
			b.op(err)
		case slotReplace:
			mu, check := replaceMutation(t.lp.Matrix(), rng)
			replaced := time.Now()
			d, err := timeIt(func() error { return t.mutate(context.Background(), mu) })
			res.overlay = append(res.overlay, d)
			if err == nil {
				err = check(t.lp.Matrix())
				if replacedAt.IsZero() {
					replacedAt = replaced
				}
			}
			b.op(err)
		}
	}
}

func (r *writerResult) finish(lp *repro.LivePipeline, st0 repro.LiveStats, replacedAt time.Time) *writerResult {
	st := lp.Stats()
	r.reskins = st.Reskins - st0.Reskins
	r.swaps = st.Swaps - st0.Swaps
	r.failures = st.RebuildsFailed - st0.RebuildsFailed
	if !replacedAt.IsZero() {
		r.dirty = append(r.dirty, [2]time.Time{replacedAt, time.Now()})
	}
	return r
}

// valueMutation rewrites valueBatch distinct existing nonzeros and
// returns a check that the matrix afterwards holds the new values.
func valueMutation(m *repro.Matrix, rng *rand.Rand) (repro.Mutation, func(*repro.Matrix) error) {
	nnz := m.NNZ()
	picked := map[int]bool{}
	var ups []repro.ValueUpdate
	for len(ups) < min(valueBatch, nnz) {
		k := rng.Intn(nnz)
		if picked[k] {
			continue
		}
		picked[k] = true
		row := sort.Search(m.Rows, func(r int) bool { return int(m.RowPtr[r+1]) > k })
		ups = append(ups, repro.ValueUpdate{Row: row, Col: int(m.ColIdx[k]), Val: rng.Float32()*2 - 1})
	}
	check := func(cur *repro.Matrix) error {
		for _, u := range ups {
			cols := cur.RowCols(u.Row)
			j := sort.Search(len(cols), func(j int) bool { return int(cols[j]) >= u.Col })
			if j == len(cols) || int(cols[j]) != u.Col || cur.RowVals(u.Row)[j] != u.Val {
				return fmt.Errorf("value update (%d,%d) not visible after Mutate", u.Row, u.Col)
			}
		}
		return nil
	}
	return repro.Mutation{UpdateValues: ups}, check
}

// replaceMutation gives replaceBatch distinct rows the column set of
// another random row with fresh values (the cluster structure stays
// recognisable), and returns a check that the rows were replaced.
func replaceMutation(m *repro.Matrix, rng *rand.Rand) (repro.Mutation, func(*repro.Matrix) error) {
	used := map[int]bool{}
	var rows []repro.RowUpdate
	for len(rows) < min(replaceBatch, m.Rows) {
		r := rng.Intn(m.Rows)
		if used[r] {
			continue
		}
		used[r] = true
		cols := append([]int32(nil), m.RowCols(rng.Intn(m.Rows))...)
		vals := make([]float32, len(cols))
		for i := range vals {
			vals[i] = rng.Float32()*2 - 1
		}
		rows = append(rows, repro.RowUpdate{Row: r, Def: repro.RowDef{Cols: cols, Vals: vals}})
	}
	check := func(cur *repro.Matrix) error {
		for _, ru := range rows {
			cols, vals := cur.RowCols(ru.Row), cur.RowVals(ru.Row)
			if len(cols) != len(ru.Def.Cols) {
				return fmt.Errorf("row %d not replaced after Mutate", ru.Row)
			}
			for j := range cols {
				if cols[j] != ru.Def.Cols[j] || vals[j] != ru.Def.Vals[j] {
					return fmt.Errorf("row %d not replaced after Mutate", ru.Row)
				}
			}
		}
		return nil
	}
	return repro.Mutation{ReplaceRows: rows}, check
}

// inDirty reports whether t falls inside one of the replacement→swap
// intervals.
func inDirty(dirty [][2]time.Time, t time.Time) bool {
	for _, iv := range dirty {
		if !t.Before(iv[0]) && t.Before(iv[1]) {
			return true
		}
	}
	return false
}

// reportWriter sets the three mutation end-to-end metrics and the live
// per-layer metrics from one writer run.
func (b *bench) reportWriter(w *writerResult) {
	b.set("reskin_ms", medianMS(w.reskin))
	b.set("overlay_ms", medianMS(w.overlay))
	b.set("stale_s", medianF(w.stale))
	b.set("live.reskin_ms", medianMS(w.reskin))
	b.set("live.overlay_ms", medianMS(w.overlay))
	b.set("live.fold_ms", medianMS(w.fold))
	b.set("live.swaps", float64(w.swaps))
	b.set("live.reskins", float64(w.reskins))
	b.set("live.rebuilds_failed", float64(w.failures))
	b.note("writer", map[string]any{
		"value_batches": len(w.reskin), "replace_batches": len(w.overlay),
		"reskins": w.reskins, "swaps": w.swaps, "stale_samples": len(w.stale),
		"late_p50_ms": medianMS(w.late), "max_late_ms": ms(w.maxLate),
	})
}

// readLog records reads with their start times, for splitting them
// into clean and overlay reads after the writer has finished.
type readLog struct {
	mu    sync.Mutex
	start []time.Time
	d     []time.Duration
}

func (l *readLog) add(start time.Time, d time.Duration) {
	l.mu.Lock()
	l.start = append(l.start, start)
	l.d = append(l.d, d)
	l.mu.Unlock()
}

// split returns the reads that started outside and inside the dirty
// intervals.
func (l *readLog) split(dirty [][2]time.Time) (clean, overlay []time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range l.start {
		if inDirty(dirty, s) {
			overlay = append(overlay, l.d[i])
		} else {
			clean = append(clean, l.d[i])
		}
	}
	return clean, overlay
}

// reader is one closed-loop read: serve is timed, check is not.
type reader struct {
	serve func() error
	check func() error
	flops func() float64
}

// liveLoop runs the writer for d with one closed-loop reader beside
// it, logging the reads into reads. It returns the writer's result, the
// flops of the reads that succeeded and the wall time.
func liveLoop(ctx context.Context, b *bench, t liveTarget, rng *rand.Rand, d time.Duration, rd reader, reads *readLog) (*writerResult, float64, time.Duration) {
	wctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var wg sync.WaitGroup
	var flops float64
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for wctx.Err() == nil {
			start := time.Now()
			err := rd.serve()
			d := time.Since(start)
			if err == nil {
				err = rd.check()
			}
			b.op(err)
			reads.add(start, d)
			if err == nil {
				flops += rd.flops()
			}
		}
	}()
	w := runWriter(wctx, b, t, rng)
	cancel()
	wg.Wait()
	return w, flops, time.Since(t0)
}

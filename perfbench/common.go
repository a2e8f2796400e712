package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
)

// setupRounds is how many times a run sets up from scratch; setup_s is
// the median over rounds. On the Server workloads the measured phase is
// split across the rounds, so every round also runs a fresh §4 trial
// and the trial's outcome is averaged within the run instead of
// deciding it. A traced run sets up once.
func setupRounds(b *bench) int {
	if b.traced {
		return 1
	}
	return 3
}

// phaseShare is one round's share of the measured phase.
func phaseShare(b *bench, rounds int) time.Duration {
	return b.seconds / time.Duration(rounds)
}

// phaseSlice is one slice of a measured phase: which part it belongs
// to (0 untraced, 1 traced) and its tracer.
type phaseSlice struct {
	part int
	tr   *tracer
	d    time.Duration
}

// slices splits a measured phase of length d. An untraced run measures
// it whole. A traced run alternates untraced and traced slices, so
// drift over the phase cancels out of trace.overhead_ratio, which
// compares the two parts' throughput.
func slices(b *bench, d time.Duration) []phaseSlice {
	if !b.traced {
		return []phaseSlice{{0, nil, d}}
	}
	const n = 8
	out := make([]phaseSlice, n)
	for i := range out {
		out[i] = phaseSlice{i % 2, nil, d / n}
		if i%2 == 1 {
			out[i].tr = b.tr
		}
	}
	return out
}

// overhead accumulates one part's flops and wall time.
func (b *bench) overhead(part int, flops float64, wall time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partFlops[part] += flops
	b.partWall[part] += wall
}

func (b *bench) overheadRatio() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.partWall[0] <= 0 || b.partWall[1] <= 0 || b.partFlops[1] <= 0 {
		return 0
	}
	untraced := b.partFlops[0] / b.partWall[0].Seconds()
	traced := b.partFlops[1] / b.partWall[1].Seconds()
	return untraced / traced
}

func secondsOf(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v.Seconds()
	}
	return out
}

// simGFLOPs is the modelled P100 throughput of the pipelines' plans at
// width k, weighted by nonzeros. It is a function of the plans alone,
// so it is the same on every run of a seed.
func simGFLOPs(pipes []*repro.Pipeline, k int) (float64, error) {
	var sum, weight float64
	for _, p := range pipes {
		st, err := p.EstimateSpMM(repro.P100(), k)
		if err != nil {
			return 0, err
		}
		nnz := float64(p.Matrix().NNZ())
		sum += nnz * st.Throughput
		weight += nnz
	}
	return sum / weight, nil
}

// setEndToEnd sets the metrics every workload derives the same way.
func (b *bench) setEndToEnd(setups []time.Duration, flops float64, wall time.Duration, lat *samples, sim float64) {
	b.set("setup_s", medianMS(setups)/1e3)
	b.set("gflops", flops/wall.Seconds()/1e9)
	b.set("p50_ms", lat.quantileMS(0.5))
	b.set("p90_ms", lat.quantileMS(0.9))
	b.set("sim_gflops", sim)
}

// checkLiveSpMM checks a read of a live matrix against the matrix after
// the read and, when a mutation landed during the read, against the
// matrix before it.
func (b *bench) checkLiveSpMM(before, after *repro.Matrix, x, y *repro.Dense, seed uint64) error {
	err := b.checkSpMM(after, x, y, seed)
	if err != nil && before != after {
		err = b.checkSpMM(before, x, y, seed)
	}
	return err
}

// reportReads splits a live phase's reads into those served while a
// row replacement was waiting for its swap and the rest.
func (b *bench) reportReads(w *writerResult, reads *readLog) {
	clean, overlay := reads.split(w.dirty)
	b.set("live.clean_serve_ms", medianMS(clean))
	b.set("live.overlay_serve_ms", medianMS(overlay))
	b.note("live_reads", map[string]int{"clean": len(clean), "overlay": len(overlay)})
}

// probeCycles is how many replace-then-values cycles the mutation
// probe runs.
const probeCycles = 20

// probeTick is how often the probe samples staleness while a
// replacement waits for its swap. Folds take tens of milliseconds
// here, so the writer's 10 ms tick would leave a handful of samples at
// fixed phases and make their median jumpy.
const probeTick = time.Millisecond

// mutationProbe measures the three mutation metrics on a workload that
// has no writer of its own, after its measured phase. It runs closed
// loop with nothing beside it: each cycle replaces rows, samples the
// staleness every probeTick until the swap folds them, then applies
// three value batches to the clean state (the re-skin path). A traced
// run also times one read on the overlay state (right after the
// replacement) and one on the clean state (after the values), for the
// live.*_serve_ms layers; read is nil otherwise.
func (b *bench) mutationProbe(t liveTarget, read func() error) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed + 7))
	w := &writerResult{}
	var clean, overlay []time.Duration
	timedRead := func(into *[]time.Duration) {
		if read != nil {
			d, err := timeIt(read)
			b.op(err)
			*into = append(*into, d)
		}
	}
	settle()
	st0 := t.lp.Stats()
	for c := 0; c < probeCycles; c++ {
		mu, check := replaceMutation(t.lp.Matrix(), rng)
		swaps := t.lp.Stats().Swaps
		t0 := time.Now()
		d, err := timeIt(func() error { return t.mutate(ctx, mu) })
		w.overlay = append(w.overlay, d)
		if err == nil {
			err = check(t.lp.Matrix())
		}
		b.op(err)
		if err != nil {
			return err
		}
		timedRead(&overlay)
		for {
			if time.Since(t0) > time.Minute {
				return fmt.Errorf("row replacement not folded after %v", time.Since(t0))
			}
			st := t.lp.Stats()
			if st.Swaps != swaps && st.StalenessSeconds == 0 {
				break
			}
			if st.StalenessSeconds > 0 {
				w.stale = append(w.stale, st.StalenessSeconds)
			}
			time.Sleep(probeTick)
		}
		w.fold = append(w.fold, time.Since(t0))
		for v := 0; v < 3; v++ {
			mu, check := valueMutation(t.lp.Matrix(), rng)
			d, err := timeIt(func() error { return t.mutate(ctx, mu) })
			w.reskin = append(w.reskin, d)
			if err == nil {
				err = check(t.lp.Matrix())
			}
			b.op(err)
			timedRead(&clean)
		}
	}
	st := t.lp.Stats()
	w.reskins, w.swaps, w.failures = st.Reskins-st0.Reskins, st.Swaps-st0.Swaps, st.RebuildsFailed-st0.RebuildsFailed
	b.reportWriter(w)
	b.set("live.clean_serve_ms", medianMS(clean))
	b.set("live.overlay_serve_ms", medianMS(overlay))
	return nil
}

package main

import (
	"context"
	"math/rand"
	"time"

	"repro"
)

// live is reads beside writes on one scrambled-cluster 16k tenant
// through Server: one closed-loop reader at K=16 and the open-loop
// writer (writer.go). The reorder, LSH and plan-cache code that runs
// once in train's set-up runs here repeatedly, contending with serving.
const liveK = 16

func runLive(b *bench) error {
	ctx := context.Background()
	n := b.rows(16384)
	hot, err := repro.GenerateScrambledClusters(n, n, n/8, b.seed)
	if err != nil {
		return err
	}
	x := repro.NewRandomDense(n, liveK, b.seed+1)
	cfg := repro.DefaultConfig()
	b.note("matrix", hot.String())

	rounds := setupRounds(b)
	var setups []time.Duration
	var flops float64
	var wall time.Duration
	var reads readLog
	writes := &writerResult{}
	seq := uint64(b.seed) << 32
	var sim float64
	steal := startSteal()
	for r := 0; r < rounds; r++ {
		settle()
		repro.SetPlanCacheCapacity(repro.DefaultPlanCacheCapacity)
		t0 := time.Now()
		srv, err := repro.NewServer(ctx, hot, cfg, repro.ServerConfig{})
		if err != nil {
			return err
		}
		lp := srv.Live()
		if err := lp.Online().WaitPreprocessed(ctx); err != nil {
			return err
		}
		y := repro.NewDense(n, liveK)
		if err := srv.SpMMInto(ctx, y, x); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		seq++
		b.op(b.checkSpMM(hot, x, y, seq))
		b.recordTrial(r, repro.DefaultTenant, lp.Online())
		if r == 0 {
			p, err := repro.NewPipeline(hot, cfg) // the reordered plan, from the cache
			if err != nil {
				return err
			}
			if sim, err = simGFLOPs([]*repro.Pipeline{p}, liveK); err != nil {
				return err
			}
		}

		for i, sl := range slices(b, phaseShare(b, rounds)) {
			var m0 *repro.Matrix
			rd := reader{
				serve: func() error {
					m0 = lp.Matrix()
					id := sl.tr.begin("server.request", 0)
					defer sl.tr.end(id)
					return srv.SpMMInto(ctx, y, x)
				},
				check: func() error { seq++; return b.checkLiveSpMM(m0, lp.Matrix(), x, y, seq) },
				flops: func() float64 { return 2 * float64(m0.NNZ()) * liveK },
			}
			target := liveTarget{lp: lp, mutate: srv.Mutate, round: r, tenant: repro.DefaultTenant}
			w, f, wl := liveLoop(ctx, b, target,
				rand.New(rand.NewSource(b.seed*1000+int64(r*100+i))), sl.d, rd, &reads)
			b.overhead(sl.part, f, wl)
			flops, wall = flops+f, wall+wl
			writes.merge(w)
		}
		if err := lp.WaitRebuilt(ctx); err != nil {
			return err
		}
		b.recordTrial(r, repro.DefaultTenant, lp.Online())
		if err := srv.Close(ctx); err != nil {
			return err
		}
	}
	steal.stop(b)
	lat := samples{d: reads.d}
	if lat.n() == 0 {
		return errNoSamples
	}
	b.note("setup_rounds_s", secondsOf(setups))
	b.note("samples", lat.n())
	b.setEndToEnd(setups, flops, wall, &lat, sim)
	b.reportWriter(writes)
	b.reportReads(writes, &reads)

	if b.traced {
		return b.layers(ctx, layerInputs{m: hot, shard: hot, shardNNZ: hot.NNZ()/2 + 1, k: liveK})
	}
	return nil
}

// merge appends another writer run's measurements.
func (r *writerResult) merge(o *writerResult) {
	r.reskin = append(r.reskin, o.reskin...)
	r.overlay = append(r.overlay, o.overlay...)
	r.fold = append(r.fold, o.fold...)
	r.stale = append(r.stale, o.stale...)
	r.dirty = append(r.dirty, o.dirty...)
	r.late = append(r.late, o.late...)
	r.maxLate = max(r.maxLate, o.maxLate)
	r.reskins += o.reskins
	r.swaps += o.swaps
	r.failures += o.failures
}

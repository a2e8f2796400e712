package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro"
)

// serve is online multi-tenant inference through Server: small requests
// (a few ms), so time shifts to the Server envelope, admission and the
// coalescer, shard fan-out, shadow verification and the §4 trial.
// Tenants:
//   - hot: scrambled clusters, 16k rows, ~70% of requests, reordered;
//   - rmat: R-MAT scale 15, above ShardNNZ, so served in row panels;
//   - uniform: 16k×16 per row, where the heuristics skip reordering.
//
// Two closed-loop clients draw K from {1, 4, 16}.
var serveKs = []int{1, 4, 16}

const (
	serveClients   = 2
	serveShardNNZ  = 400_000 // between the hot tenant's ~350k and R-MAT's ~470k nonzeros
	serveWindow    = 1500 * time.Microsecond
	serveVerify    = 0.05
	serveProbeK    = 16
	hotRequestPart = 0.70
)

type serveTenant struct {
	id    string
	m     *repro.Matrix
	share float64
	xs    map[int]*repro.Dense
}

func runServe(b *bench) error {
	ctx := context.Background()
	n := b.rows(16384)
	hot, err := repro.GenerateScrambledClusters(n, n, n/8, b.seed)
	if err != nil {
		return err
	}
	uni, err := repro.GenerateUniform(n, n, 16, b.seed+1)
	if err != nil {
		return err
	}
	rmScale := 15 + int(math.Round(math.Log2(b.scale)))
	rm, err := repro.GenerateRMAT(max(rmScale, 8), 16, b.seed+2)
	if err != nil {
		return err
	}
	shardNNZ := int(serveShardNNZ * b.scale)
	tenants := []*serveTenant{
		{id: repro.DefaultTenant, m: hot, share: hotRequestPart},
		{id: "rmat", m: rm, share: (1 - hotRequestPart) / 2},
		{id: "uniform", m: uni, share: (1 - hotRequestPart) / 2},
	}
	for i, t := range tenants {
		t.xs = map[int]*repro.Dense{}
		for _, k := range serveKs {
			t.xs[k] = repro.NewRandomDense(t.m.Cols, k, b.seed+int64(10*i+k))
		}
		b.note("matrix_"+t.id, t.m.String())
	}
	cfg := repro.DefaultConfig()
	scfg := repro.ServerConfig{CoalesceWindow: serveWindow, VerifyFraction: serveVerify, ShardNNZ: shardNNZ}

	rounds := setupRounds(b)
	var setups []time.Duration
	var lat samples
	var flops float64
	var wall time.Duration
	var leads, joins, verified int64
	seq := uint64(b.seed) << 32
	steal := startSteal()
	var srv *repro.Server
	for r := 0; r < rounds; r++ {
		if srv != nil {
			if err := srv.Close(ctx); err != nil {
				return err
			}
		}
		settle()
		repro.SetPlanCacheCapacity(repro.DefaultPlanCacheCapacity)
		t0 := time.Now()
		srv, err = repro.NewServer(ctx, hot, cfg, scfg)
		if err != nil {
			return err
		}
		for _, t := range tenants[1:] {
			if err := srv.AddTenant(ctx, t.id, t.m, cfg, 1); err != nil {
				return err
			}
		}
		// Every tenant's background build lands before the first
		// requests, so no trial is timed against another tenant's
		// preprocessing.
		for _, t := range tenants {
			lp, err := srv.LiveTenant(t.id)
			if err != nil {
				return err
			}
			if o := lp.Online(); o != nil {
				if err := o.WaitPreprocessed(ctx); err != nil {
					return err
				}
			}
		}
		firstY := map[string]*repro.Dense{}
		for _, t := range tenants {
			y := repro.NewDense(t.m.Rows, serveProbeK)
			if err := srv.SpMMIntoTenant(ctx, t.id, y, t.xs[serveProbeK]); err != nil {
				return err
			}
			firstY[t.id] = y
		}
		setups = append(setups, time.Since(t0))
		for _, t := range tenants {
			seq++
			b.op(b.checkSpMM(t.m, t.xs[serveProbeK], firstY[t.id], seq))
			lp, _ := srv.LiveTenant(t.id)
			b.recordTrial(r, t.id, lp.Online())
		}

		for i, sl := range slices(b, phaseShare(b, rounds)) {
			f, w := runClients(serveClients, sl.d, func(c int, until time.Time) float64 {
				id := int64(r*100 + i*10 + c)
				return serveClient(b, srv, tenants, rand.New(rand.NewSource(b.seed*1000+id)), until, sl.tr, &lat, seq+uint64(id)<<24)
			})
			b.overhead(sl.part, f, w)
			flops, wall = flops+f, wall+w
		}
		for _, t := range tenants {
			ts, _ := srv.TenantStats(t.id)
			leads += ts.Coalesce.Leads
			joins += ts.Coalesce.Joins
			verified += ts.Integrity.ChecksClean + ts.Integrity.ChecksMismatch
		}
	}
	steal.stop(b)
	defer srv.Close(ctx)
	if lat.n() == 0 {
		return errNoSamples
	}
	b.note("setup_rounds_s", secondsOf(setups))
	b.note("samples", lat.n())

	pipes, err := servePlans(srv, tenants, cfg)
	if err != nil {
		return err
	}
	sim, err := simGFLOPs(pipes, serveProbeK)
	if err != nil {
		return err
	}
	b.setEndToEnd(setups, flops, wall, &lat, sim)

	// Mutation probe on the hot tenant, after the measured phase.
	lp, err := srv.LiveTenant(repro.DefaultTenant)
	if err != nil {
		return err
	}
	var read func() error
	if b.traced {
		x, y := tenants[0].xs[serveProbeK], repro.NewDense(n, serveProbeK)
		read = func() error {
			if err := srv.SpMMIntoTenant(ctx, repro.DefaultTenant, y, x); err != nil {
				return err
			}
			seq++
			return b.checkSpMM(lp.Matrix(), x, y, seq)
		}
	}
	target := liveTarget{lp: lp, mutate: func(ctx context.Context, mu repro.Mutation) error {
		return srv.MutateTenant(ctx, repro.DefaultTenant, mu)
	}}
	if err := b.mutationProbe(target, read); err != nil {
		return err
	}

	if !b.traced {
		return nil
	}
	if err := b.layers(ctx, layerInputs{m: hot, shard: rm, shardNNZ: shardNNZ, k: serveProbeK}); err != nil {
		return err
	}
	// The coalescer and verification counts of the workload itself
	// replace the layer sweep's short burst.
	if leads > 0 {
		b.set("serve.join_ratio", float64(joins)/float64(leads+joins))
		b.set("serve.batch_ops", float64(leads+joins)/float64(leads))
	}
	b.set("integrity.checked", float64(verified))
	return nil
}

// serveClient issues requests until the deadline and returns the flops
// of those that succeeded.
func serveClient(b *bench, srv *repro.Server, tenants []*serveTenant, rng *rand.Rand, until time.Time, tr *tracer, lat *samples, seq uint64) float64 {
	ys := map[*serveTenant]map[int]*repro.Dense{}
	for _, t := range tenants {
		ys[t] = map[int]*repro.Dense{}
		for _, k := range serveKs {
			ys[t][k] = repro.NewDense(t.m.Rows, k)
		}
	}
	var flops float64
	for time.Now().Before(until) {
		t := pickTenant(tenants, rng.Float64())
		k := serveKs[rng.Intn(len(serveKs))]
		x, y := t.xs[k], ys[t][k]
		id := tr.begin("server.request", 0)
		start := time.Now()
		err := srv.SpMMIntoTenant(context.Background(), t.id, y, x)
		d := time.Since(start)
		tr.end(id)
		if err == nil {
			seq++
			err = b.checkSpMM(t.m, x, y, seq)
		}
		b.op(err)
		lat.add(d)
		if err == nil {
			flops += 2 * float64(t.m.NNZ()) * float64(k)
		}
	}
	return flops
}

func pickTenant(tenants []*serveTenant, u float64) *serveTenant {
	for _, t := range tenants {
		if u < t.share {
			return t
		}
		u -= t.share
	}
	return tenants[len(tenants)-1]
}

// runClients runs n closed-loop clients for d and returns their summed
// flops and the phase's wall time.
func runClients(n int, d time.Duration, client func(c int, until time.Time) float64) (float64, time.Duration) {
	t0 := time.Now()
	until := t0.Add(d)
	var mu sync.Mutex
	var flops float64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := client(c, until)
			mu.Lock()
			flops += f
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return flops, time.Since(t0)
}

// servePlans returns the reordered-plan pipelines the tenants were
// preprocessed into, one per panel for the sharded tenant. They come
// from the plan cache, so they are the plans the server built,
// whichever plan its trial then chose to serve.
func servePlans(srv *repro.Server, tenants []*serveTenant, cfg repro.Config) ([]*repro.Pipeline, error) {
	var pipes []*repro.Pipeline
	for _, t := range tenants {
		lp, err := srv.LiveTenant(t.id)
		if err != nil {
			return nil, err
		}
		mats := []*repro.Matrix{t.m}
		if sp := lp.Sharded(); sp != nil {
			mats = mats[:0]
			for i := 0; i < sp.Panels(); i++ {
				lo, hi := sp.PanelRange(i)
				mats = append(mats, rowPanel(t.m, lo, hi))
			}
		}
		for _, m := range mats {
			p, err := repro.NewPipeline(m, cfg)
			if err != nil {
				return nil, err
			}
			pipes = append(pipes, p)
		}
	}
	return pipes, nil
}

// rowPanel returns rows [lo, hi) of m as a matrix sharing m's arrays,
// built the way the sharded pipeline builds its panels, so its plan is
// found in the plan cache.
func rowPanel(m *repro.Matrix, lo, hi int) *repro.Matrix {
	base, end := int(m.RowPtr[lo]), int(m.RowPtr[hi])
	rp := make([]int32, hi-lo+1)
	for i := range rp {
		rp[i] = m.RowPtr[lo+i] - int32(base)
	}
	return &repro.Matrix{Rows: hi - lo, Cols: m.Cols, RowPtr: rp, ColIdx: m.ColIdx[base:end:end], Val: m.Val[base:end:end]}
}

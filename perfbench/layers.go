package main

import (
	"context"
	"math/rand"
	"time"

	"repro"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/reorder"
)

// layerInputs are the workload's operands for the per-layer sweep: its
// main matrix m at width k, and the matrix it shards (with the shard
// size it uses).
type layerInputs struct {
	m, shard *repro.Matrix
	shardNNZ int
	k        int
}

// layerBudget bounds the repetitions of each timed call in the sweep.
const layerBudget = 600 * time.Millisecond

// layers is the traced run's sweep: it calls each layer's public entry
// point on the workload's operands inside spans and derives the
// per-layer metrics from them. Every result it produces is checked like
// the workload's own.
func (b *bench) layers(ctx context.Context, in layerInputs) error {
	tr := b.tr
	cfg := repro.DefaultConfig()
	m, k := in.m, in.k
	seq := uint64(b.seed)<<32 | 1<<31

	// Preprocessing, from a cold plan cache. The stage spans the
	// program records under an obs.Trace become the children of the
	// benchmark's span around the call.
	settle()
	repro.SetPlanCacheCapacity(repro.DefaultPlanCacheCapacity)
	otr := obs.NewTrace("perfbench")
	pre := tr.begin("reorder.preprocess", 0)
	plan, err := repro.PreprocessCachedCtx(obs.WithTrace(ctx, otr), m, cfg)
	tr.end(pre)
	if err != nil {
		return err
	}
	tr.importStages(pre, otr)
	b.set("reorder.preprocess_ms", medianMS(tr.durations("reorder.preprocess")))
	b.set("reorder.self_ms", medianMS(tr.selfTimes("reorder.preprocess")))
	b.set("lsh.signatures_ms", medianMS(tr.totalPerParent("lsh.signatures")))
	b.set("lsh.pairs_ms", medianMS(tr.totalPerParent("lsh.pairs")))
	b.set("reorder.cluster_ms", medianMS(tr.totalPerParent("reorder.cluster")))
	b.set("aspt.build_ms", medianMS(tr.totalPerParent("aspt.build")))
	b.set("lsh.pairs", float64(plan.Round1Stats.CandidatePairs+plan.Round2Stats.CandidatePairs))
	b.set("aspt.dense_ratio", plan.DenseRatioAfter)

	var pa *repro.Pipeline
	hits, err := timed(tr, "plancache.hit", 5, func() (err error) {
		pa, err = repro.NewPipeline(m, cfg)
		return err
	})
	if err != nil {
		return err
	}
	b.set("plancache.hit_ms", medianMS(hits))

	var st, base *repro.SimStats
	if _, err := tr.call("gpusim.estimate", 0, func() (err error) {
		if st, err = pa.EstimateSpMM(repro.P100(), k); err != nil {
			return err
		}
		base, err = repro.EstimateSpMMRowWise(repro.P100(), m, k)
		return err
	}); err != nil {
		return err
	}
	b.set("gpusim.dram_mb", st.DRAMBytes/1e6)
	b.set("gpusim.l2_hit", st.HitRate())
	b.set("gpusim.speedup", st.Speedup(base))

	if err := b.kernelLayers(ctx, pa, k, &seq); err != nil {
		return err
	}
	if err := b.serverLayers(ctx, m, cfg, k, &seq); err != nil {
		return err
	}

	sp, err := repro.NewShardedPipelineCtx(ctx, in.shard, cfg, in.shardNNZ)
	if err != nil {
		return err
	}
	sx := repro.NewRandomDense(in.shard.Cols, k, b.seed+98)
	sy := repro.NewDense(in.shard.Rows, k)
	shard, err := timedChecked(tr, "shard.spmm", func() error { return sp.SpMMIntoCtx(ctx, sy, sx) },
		func() error { seq++; return b.checkSpMM(in.shard, sx, sy, seq) }, b)
	if err != nil {
		return err
	}
	b.set("shard.spmm_ms", medianMS(shard))
	b.set("shard.panels", float64(sp.Panels()))

	b.set("integrity.check_ms", b.checkTimes.quantileMS(0.5))
	b.reportTrials()
	return nil
}

// kernelLayers times the plan's SpMM kernel, the output permutation and
// the Pipeline call that composes them on the same operands, then the
// SDDMM kernel, and relates kernel bandwidth to the host's copy roof.
func (b *bench) kernelLayers(ctx context.Context, pa *repro.Pipeline, k int, seq *uint64) error {
	tr := b.tr
	plan := pa.Plan()
	m := pa.Matrix()
	x := repro.NewRandomDense(m.Cols, k, b.seed+99)
	y, yre := repro.NewDense(m.Rows, k), repro.NewDense(m.Rows, k)
	spmm, err := spmmKernel(plan)
	if err != nil {
		return err
	}
	check := func() error { *seq++; return b.checkSpMM(m, x, y, *seq) }
	// The kernel, the permutation and the Pipeline call that composes
	// them alternate, so host drift hits all three alike.
	var kern, perm, pipe []time.Duration
	for t0 := time.Now(); len(pipe) < 5 || time.Since(t0) < layerBudget; {
		d, err := tr.call("kernels.spmm", 0, func() error { return spmm(ctx, yre, x) })
		if err != nil {
			return err
		}
		kern = append(kern, d)
		if d, err = tr.call("dense.permute", 0, func() error { return dense.PermuteRowsInto(y, yre, plan.InvRowPerm) }); err != nil {
			return err
		}
		perm = append(perm, d)
		b.op(check())
		if d, err = tr.call("pipeline.spmm", 0, func() error { return pa.SpMMIntoCtx(ctx, y, x) }); err != nil {
			return err
		}
		pipe = append(pipe, d)
		b.op(check())
	}
	b.set("kernels.spmm_ms", medianMS(kern))
	b.set("dense.permute_ms", medianMS(perm))
	b.set("pipeline.spmm_ms", medianMS(pipe))
	b.set("pipeline.self_ms", medianMS(pipe)-medianMS(kern)-medianMS(perm))

	// Compulsory traffic of one SpMM pass: the CSR arrays, X and Y.
	bytes := 4*float64(m.Rows+1) + 8*float64(m.NNZ()) + 4*float64(m.Cols*k) + 4*float64(m.Rows*k)
	gbps := bytes / (medianMS(kern) / 1e3) / 1e9
	roof := roofCopyGBps()
	b.set("kernels.gbps", gbps)
	b.set("roof.copy_gbps", roof)
	b.set("kernels.roof_frac", gbps/roof)

	// SDDMM in reordered row space, as the pipeline runs it.
	src := plan.Tiled.Src
	yop := repro.NewRandomDense(m.Rows, k, b.seed+97)
	ype := repro.NewDense(m.Rows, k)
	if err := dense.PermuteRowsInto(ype, yop, plan.RowPerm); err != nil {
		return err
	}
	out := src.Clone()
	sddmm, err := timedChecked(tr, "kernels.sddmm", func() error {
		return kernels.SDDMMASpTIntoCtx(ctx, out, plan.Tiled, x, ype)
	}, func() error { *seq++; return b.checkSDDMM(src, x, ype, out, *seq) }, b)
	if err != nil {
		return err
	}
	b.set("kernels.sddmm_ms", medianMS(sddmm))
	return nil
}

// spmmKernel returns the SpMM kernel the plan selected, writing the
// result in reordered row space.
func spmmKernel(plan *repro.Plan) (func(context.Context, *repro.Dense, *repro.Dense) error, error) {
	switch plan.Kernel {
	case reorder.KernelRowWise:
		return func(ctx context.Context, y, x *repro.Dense) error {
			return kernels.SpMMRowWiseIntoCtx(ctx, y, plan.Reordered, x)
		}, nil
	case reorder.KernelMerge:
		return func(ctx context.Context, y, x *repro.Dense) error {
			return kernels.SpMMMergeIntoCtx(ctx, y, plan.Reordered, x)
		}, nil
	case reorder.KernelELLHybrid:
		hyb, err := ellpack.FromCSRHybrid(plan.Reordered, 0)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, y, x *repro.Dense) error {
			return kernels.SpMMHybridIntoCtx(ctx, y, hyb, x)
		}, nil
	default:
		return func(ctx context.Context, y, x *repro.Dense) error {
			return kernels.SpMMASpTIntoCtx(ctx, y, plan.Tiled, x)
		}, nil
	}
}

// serverLayers times Server calls against its winning pipeline on the
// same operands (default configuration), then a short two-client burst
// through a coalescing, verifying server for the coalescer, batch-stack
// and shadow-verification counts.
func (b *bench) serverLayers(ctx context.Context, m *repro.Matrix, cfg repro.Config, k int, seq *uint64) error {
	tr := b.tr
	srv, err := repro.NewServer(ctx, m, cfg, repro.ServerConfig{})
	if err != nil {
		return err
	}
	defer srv.Close(ctx)
	if err := srv.Pipeline().WaitPreprocessed(ctx); err != nil {
		return err
	}
	x := repro.NewRandomDense(m.Cols, k, b.seed+96)
	y := repro.NewDense(m.Rows, k)
	check := func() error { *seq++; return b.checkSpMM(m, x, y, *seq) }
	if err := srv.SpMMInto(ctx, y, x); err != nil { // runs the trial
		return err
	}
	b.op(check())
	b.recordTrial(-1, "layers", srv.Pipeline())
	winner := srv.Pipeline().Pipeline()
	var direct []time.Duration
	served, err := timedChecked(tr, "server.spmm", func() error { return srv.SpMMInto(ctx, y, x) }, func() error {
		if err := check(); err != nil {
			return err
		}
		d, err := tr.call("server.winner_pipeline", 0, func() error { return winner.SpMMIntoCtx(ctx, y, x) })
		direct = append(direct, d)
		if err != nil {
			return err
		}
		return check()
	}, b)
	if err != nil {
		return err
	}
	b.set("server.spmm_ms", medianMS(served))
	b.set("server.self_ms", medianMS(served)-medianMS(direct))

	csrv, err := repro.NewServer(ctx, m, cfg, repro.ServerConfig{CoalesceWindow: serveWindow, VerifyFraction: serveVerify})
	if err != nil {
		return err
	}
	defer csrv.Close(ctx)
	if err := csrv.Pipeline().WaitPreprocessed(ctx); err != nil {
		return err
	}
	one := []*serveTenant{{id: repro.DefaultTenant, m: m, share: 1, xs: map[int]*repro.Dense{}}}
	for _, kk := range serveKs {
		one[0].xs[kk] = repro.NewRandomDense(m.Cols, kk, b.seed+int64(kk))
	}
	var lat samples
	runClients(serveClients, layerBudget, func(c int, until time.Time) float64 {
		return serveClient(b, csrv, one, rand.New(rand.NewSource(b.seed+int64(c))), until, tr, &lat, *seq+uint64(c+1)<<40)
	})
	ts, _ := csrv.TenantStats(repro.DefaultTenant)
	if n := ts.Coalesce.Leads + ts.Coalesce.Joins; n > 0 {
		b.set("serve.join_ratio", float64(ts.Coalesce.Joins)/float64(n))
		b.set("serve.batch_ops", float64(n)/float64(max(ts.Coalesce.Leads, 1)))
	}
	b.set("integrity.checked", float64(ts.Integrity.ChecksClean+ts.Integrity.ChecksMismatch))

	// The column stack a coalesced batch of one request per K builds.
	var srcs []*dense.Matrix
	width := 0
	for _, kk := range serveKs {
		srcs = append(srcs, one[0].xs[kk])
		width += kk
	}
	wide := dense.New(m.Cols, width)
	stack, err := timed(tr, "dense.stack", 20, func() error { return dense.StackColsInto(wide, srcs) })
	if err != nil {
		return err
	}
	b.set("dense.stack_ms", medianMS(stack))
	return nil
}

// timed runs f n times inside spans named name.
func timed(tr *tracer, name string, n int, f func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		d, err := tr.call(name, 0, f)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// timedChecked runs f inside spans named name, as often as fits in
// layerBudget (at least 5 times), checking and booking each result
// outside the span.
func timedChecked(tr *tracer, name string, f, check func() error, b *bench) ([]time.Duration, error) {
	var out []time.Duration
	t0 := time.Now()
	for len(out) < 5 || time.Since(t0) < layerBudget {
		d, err := tr.call(name, 0, f)
		if err != nil {
			return nil, err
		}
		b.op(check())
		out = append(out, d)
	}
	return out, nil
}

package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
)

// BenchmarkReorderGate times the reordered and the no-reorder plan of
// the serve workload's matrix families at K = 1…128 and reports the
// reorder gate's pick's regret: its time over the faster plan's. The
// scrambled and uniform families run as online tenants do (one plan
// each); R-MAT runs as the sharded tenant does (row panels of ~400k
// nonzeros, or ~100k under -short), every panel forced onto its
// reordered plan against every panel on its no-reorder plan. Each
// panel has its own gate; the R-MAT pick switches at the first panel's
// (gateK). The gate reads this host's L2, so the picks follow the host.
//
// Each K times nr, then rr, and the later line carries the regret.
func BenchmarkReorderGate(b *testing.B) {
	n, scale, shard := 16384, 15, 400_000
	if testing.Short() {
		n, scale, shard = 4096, 13, 100_000
	}
	ctx := context.Background()
	cfg := repro.DefaultConfig()
	type family struct {
		name   string
		rr, nr unit
		minK   int // the gate's: K >= minK picks rr
	}
	var fams []family
	for _, gen := range []struct {
		name string
		m    func() (*repro.Matrix, error)
	}{
		{"scrambled", func() (*repro.Matrix, error) { return repro.GenerateScrambledClusters(n, n, n/8, 41) }},
		{"uniform", func() (*repro.Matrix, error) { return repro.GenerateUniform(n, n, 16, 42) }},
	} {
		m, err := gen.m()
		if err != nil {
			b.Fatal(err)
		}
		rr, err := repro.NewPipeline(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nr, err := repro.NewPipelineNR(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fams = append(fams, family{gen.name, rr, nr, repro.ReorderMinK(m, cfg)})
	}
	rm, err := repro.GenerateRMAT(scale, 16, 43)
	if err != nil {
		b.Fatal(err)
	}
	sharded := func(l2 int64) *repro.ShardedPipeline {
		// The hook changes the gate of pipelines built while it is set:
		// L2 0 passes every width, so one call builds the panels'
		// reordered plans, forced to serve every later call; a huge L2
		// passes none.
		restore := repro.SetGateL2ForTest(b, l2)
		defer restore()
		sp, err := repro.NewShardedPipelineCtx(ctx, rm, cfg, shard)
		if err != nil {
			b.Fatal(err)
		}
		repro.BuildReorderedForTest(b, sp, 1)
		repro.ForceReorderedForTest(sp)
		return sp
	}
	host, err := repro.NewShardedPipelineCtx(ctx, rm, cfg, shard)
	if err != nil {
		b.Fatal(err)
	}
	fams = append(fams, family{"rmat", sharded(0), sharded(1 << 50), repro.ShardedMinK(host)})

	for _, f := range fams {
		m := f.rr.Matrix()
		for _, k := range []int{1, 4, 16, 32, 64, 128} {
			x, y := repro.NewRandomDense(m.Cols, k, 1), repro.NewDense(m.Rows, k)
			var ns [2]float64 // nr, rr
			for i, p := range []struct {
				name string
				u    unit
			}{{"nr", f.nr}, {"rr", f.rr}} {
				b.Run(fmt.Sprintf("%s/K=%d/%s", f.name, k, p.name), func(b *testing.B) {
					for w := 0; w < 2; w++ {
						if err := p.u.SpMMIntoCtx(ctx, y, x); err != nil {
							b.Fatal(err)
						}
					}
					b.ResetTimer()
					for j := 0; j < b.N; j++ {
						if err := p.u.SpMMIntoCtx(ctx, y, x); err != nil {
							b.Fatal(err)
						}
					}
					ns[i] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					if i == 1 && ns[0] > 0 {
						pick := ns[0]
						if k >= f.minK {
							pick = ns[1]
						}
						b.ReportMetric(pick/min(ns[0], ns[1]), "regret")
						b.ReportMetric(float64(f.minK), "gateK")
					}
				})
			}
		}
	}
}

package repro_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/kernels"
	"repro/internal/synth"
)

// shardTarget forces several panels on the small test corpus.
const shardTarget = 2000

// TestShardedBitIdenticalAcrossCorpus is the sharding correctness
// property: with the row-wise kernel forced — the one kernel whose
// per-row accumulation order cannot depend on what other rows are in
// the panel — the sharded output must be bit-identical to the
// unsharded pipeline's on every corpus family. (Merge and ASpT group a
// row's partial sums by chunk/tile boundaries, which legitimately move
// when the matrix is split, so bit-identity is only a theorem for
// order-preserving kernels; the autotuned cross-check below bounds
// those within float tolerance.)
func TestShardedBitIdenticalAcrossCorpus(t *testing.T) {
	entries, err := synth.Corpus(synth.Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.DefaultConfig()
	cfg.Kernel = repro.KernelRowWise
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			m := e.M
			p, err := repro.NewPipeline(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := repro.NewShardedPipeline(m, cfg, shardTarget)
			if err != nil {
				t.Fatal(err)
			}
			if m.NNZ() > 4*shardTarget && sp.Panels() < 2 {
				t.Fatalf("expected multiple panels for nnz=%d, got %d", m.NNZ(), sp.Panels())
			}
			x := repro.NewRandomDense(m.Cols, 8, 99)
			want := repro.NewDense(m.Rows, 8)
			if err := p.SpMMInto(want, x); err != nil {
				t.Fatal(err)
			}
			got := repro.NewDense(m.Rows, 8)
			if err := sp.SpMMIntoCtx(context.Background(), got, x); err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("sharded (%d panels) diverges from unsharded at %d: %v vs %v",
						sp.Panels(), i, got.Data[i], want.Data[i])
				}
			}
			// SDDMM rides the same panel views; it scatters by value
			// segment rather than row range, so check it too.
			yd := repro.NewRandomDense(m.Rows, 8, 100)
			wantO := m.Clone()
			if err := p.SDDMMInto(wantO, x, yd); err != nil {
				t.Fatal(err)
			}
			gotO := m.Clone()
			if err := sp.SDDMMIntoCtx(context.Background(), gotO, x, yd); err != nil {
				t.Fatal(err)
			}
			for j := range wantO.Val {
				if wantO.Val[j] != gotO.Val[j] {
					t.Fatalf("sharded SDDMM diverges from unsharded at %d", j)
				}
			}
		})
	}
}

// TestShardedAutotunedWithinTolerance lets every panel's autotuner pick
// freely (panels may select different kernels than the whole matrix
// would) and bounds the drift against the plain row-wise baseline:
// only summation grouping may differ, never which products are summed.
func TestShardedAutotunedWithinTolerance(t *testing.T) {
	entries, err := synth.Corpus(synth.Options{Scale: 0.1, Families: []string{"rmat", "scrambled", "uniform"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		m := e.M
		sp, err := repro.NewShardedPipeline(m, repro.DefaultConfig(), shardTarget)
		if err != nil {
			t.Fatal(err)
		}
		x := repro.NewRandomDense(m.Cols, 8, 7)
		want, err := repro.SpMM(m, x)
		if err != nil {
			t.Fatal(err)
		}
		got := repro.NewDense(m.Rows, 8)
		if err := sp.SpMMIntoCtx(context.Background(), got, x); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if d := math.Abs(float64(want.Data[i] - got.Data[i])); d > 1e-4 {
				t.Fatalf("%s: sharded autotuned diverges at %d by %v", e.Name, i, d)
			}
		}
	}
}

// TestShardedBatchMatchesUnsharded routes a multi-operand batch through
// the sharded pipeline: stack → per-panel pass → scatter must equal
// per-operand sharded calls bit-for-bit.
func TestShardedBatchMatchesUnsharded(t *testing.T) {
	m, err := repro.GenerateRMAT(11, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.DefaultConfig()
	cfg.Kernel = repro.KernelRowWise
	sp, err := repro.NewShardedPipeline(m, cfg, m.NNZ()/4+1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ops := make([]repro.BatchOp, 3)
	wants := make([]*repro.Dense, len(ops))
	for i := range ops {
		x := repro.NewRandomDense(m.Cols, 2+i, int64(i))
		ops[i] = repro.BatchOp{Y: repro.NewDense(m.Rows, 2+i), X: x}
		w := repro.NewDense(m.Rows, 2+i)
		if err := sp.SpMMIntoCtx(ctx, w, x); err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	if err := kernels.SpMMBatchIntoCtx(ctx, sp, ops); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		for j := range wants[i].Data {
			if ops[i].Y.Data[j] != wants[i].Data[j] {
				t.Fatalf("batched op %d diverges at %d", i, j)
			}
		}
	}
}

// TestShardedCancelledMidFlight cancels sharded SpMM calls — one
// before launch, then repeatedly racing the cancel against in-flight
// panels — and requires that (a) a cancelled call reports the context
// error and (b) the very next clean call over the same pipeline is
// still bit-identical to the unsharded result: a shard dying mid-panel
// must not poison pooled views or any later serve.
func TestShardedCancelledMidFlight(t *testing.T) {
	m, err := repro.GenerateScrambledClusters(4096, 2048, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.DefaultConfig()
	cfg.Kernel = repro.KernelRowWise
	p, err := repro.NewPipeline(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := repro.NewShardedPipeline(m, cfg, m.NNZ()/8+1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Panels() < 2 {
		t.Fatalf("want multiple panels, got %d", sp.Panels())
	}
	x := repro.NewRandomDense(m.Cols, 16, 3)
	want := repro.NewDense(m.Rows, 16)
	if err := p.SpMMInto(want, x); err != nil {
		t.Fatal(err)
	}
	y := repro.NewDense(m.Rows, 16)

	// Already-cancelled context: every panel must refuse to run.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if err := sp.SpMMIntoCtx(pre, y, x); err != context.Canceled {
		t.Fatalf("pre-cancelled sharded SpMM = %v, want context.Canceled", err)
	}

	// Race a cancel against the panels for a spread of delays so some
	// runs die with panels genuinely mid-kernel.
	var cancelled atomic.Int64
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i*20) * time.Microsecond)
		if err := sp.SpMMIntoCtx(ctx, y, x); err != nil {
			if err != context.Canceled {
				t.Fatalf("mid-flight cancel surfaced %v, want context.Canceled", err)
			}
			cancelled.Add(1)
		}
		cancel()
	}
	t.Logf("%d/20 racing calls observed the cancel", cancelled.Load())

	// The pipeline must serve a clean call bit-identically afterwards.
	if err := sp.SpMMIntoCtx(context.Background(), y, x); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != y.Data[i] {
			t.Fatalf("post-cancel serve diverges at %d", i)
		}
	}
}

// TestShardedSinglePanelDegenerate guards the degenerate configurations: target <= 0
// or larger than the matrix yields one panel that behaves like a plain
// pipeline.
func TestShardedSinglePanelDegenerate(t *testing.T) {
	m := scrambled(t)
	for _, target := range []int{0, -5, m.NNZ() * 2} {
		sp, err := repro.NewShardedPipeline(m, repro.DefaultConfig(), target)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Panels() != 1 {
			t.Fatalf("target %d: got %d panels, want 1", target, sp.Panels())
		}
		lo, hi := sp.PanelRange(0)
		if lo != 0 || hi != m.Rows {
			t.Fatalf("single panel covers [%d,%d), want [0,%d)", lo, hi, m.Rows)
		}
	}
}

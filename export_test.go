package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/kernels"
)

// SetGateL2ForTest makes every reorder gate built until the test ends,
// or until the returned func is called, use l2 bytes as the per-core L2
// size. With 0 every width passes, so a small test matrix builds its
// reordered plan and runs the §4 trial the way a matrix whose X
// overflows L2 does in serving.
func SetGateL2ForTest(tb testing.TB, l2 int64) (restore func()) {
	tb.Helper()
	old := l2Hook.Swap(&l2)
	restore = func() { l2Hook.Store(old) }
	tb.Cleanup(restore)
	return restore
}

// LiveBatchPass returns the pass the Server's coalescer runs a batch
// of ops through on l, which l's reorder gate judges by the widest
// operand.
func LiveBatchPass(l *LivePipeline, ops []BatchOp) kernels.SpMMPass { return l.batchPass(ops) }

// ReorderMinK returns the smallest width at which m's reorder gate
// passes under cfg (math.MaxInt for none).
func ReorderMinK(m *Matrix, cfg Config) int { return newReorderGate(m, cfg).minK }

// ShardedMinK returns the smallest width at which some panel of s
// passes its reorder gate.
func ShardedMinK(s *ShardedPipeline) int {
	k := math.MaxInt
	for _, pn := range s.panels {
		k = min(k, pn.pipe.gate.minK)
	}
	return k
}

// ForceReorderedForTest makes each panel of s whose reordered plan is
// built serve it to every call its gate passes, as if the panel's trial
// had picked it.
func ForceReorderedForTest(s *ShardedPipeline) {
	for _, pn := range s.panels {
		if rr := pn.pipe.rr.Load(); rr != nil {
			pn.pipe.winner.Store(rr)
		}
	}
}

// lazyReorderer is a base whose reordered build its first wide call
// starts: an *OnlinePipeline, or a *ShardedPipeline whose panels' gates
// pass that width.
type lazyReorderer interface {
	Matrix() *Matrix
	SpMMIntoCtx(ctx context.Context, y, x *Dense) error
	WaitPreprocessed(ctx context.Context) error
}

// BuildReorderedForTest makes one call of width k on p, which starts
// p's reordered build when p's reorder gate passes k (each such panel's,
// for a sharded p), and waits for the builds to settle. The next call
// at a passing width then runs the §4 trial (each panel's).
func BuildReorderedForTest(tb testing.TB, p lazyReorderer, k int) {
	tb.Helper()
	ctx := context.Background()
	m := p.Matrix()
	if err := p.SpMMIntoCtx(ctx, NewDense(m.Rows, k), NewRandomDense(m.Cols, k, 1)); err != nil {
		tb.Fatal(err)
	}
	if err := p.WaitPreprocessed(ctx); err != nil {
		tb.Fatal(err)
	}
}

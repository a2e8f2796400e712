package repro

// The reorder gate: row reordering pays only through cache reuse of X's
// rows (rows that share columns read the same X rows while they are
// still cached), and that reuse only matters once X no longer fits in
// the per-core L2. Below that width every X row a call touches stays
// cached whatever the row order, and the reordered plan's row map costs
// about what its locality saves. The gate therefore compares X's
// footprint at width K, F(K) = (distinct columns the matrix references)
// × K × 4 bytes, against ¾ of L2, and an online pipeline — a whole
// matrix, or one row panel of a sharded one — builds its reordered plan
// only when a call passes it (DESIGN §7).

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// cpuCacheDir holds one index* directory per cache of CPU 0, each with
// level, type and size files.
const cpuCacheDir = "/sys/devices/system/cpu/cpu0/cache"

// fallbackL2 is the L2 size the gate assumes when the host's cannot be
// read (no sysfs, or no level-2 entry): 1 MiB, a common per-core L2.
const fallbackL2 = 1 << 20

// Gate footprint fraction gateNum/gateDen of L2. On the 16k scrambled
// matrix the reordered plan ran at 0.97× the plain plan's time with
// F ≈ L2/2 (K=16), 0.94× at F ≈ L2 (K=32) and 0.79× at F ≈ 2·L2
// (K=64); ¾ sits between the first two.
const gateNum, gateDen = 3, 4

// hostL2 is the per-core L2 size, read once.
var hostL2 = sync.OnceValue(func() int64 { return readL2(cpuCacheDir) })

// l2Hook, when set, stands in for hostL2 in gates built afterwards (a
// test hook; see export_test.go).
var l2Hook atomic.Pointer[int64]

func gateL2() int64 {
	if p := l2Hook.Load(); p != nil {
		return *p
	}
	return hostL2()
}

// readL2 returns the size of the first level-2 data or unified cache
// described under dir, or fallbackL2 when there is none it can read.
func readL2(dir string) int64 {
	idx, _ := filepath.Glob(filepath.Join(dir, "index*"))
	for _, d := range idx {
		if readField(d, "level") != "2" || readField(d, "type") == "Instruction" {
			continue
		}
		if n, ok := parseCacheSize(readField(d, "size")); ok {
			return n
		}
	}
	return fallbackL2
}

func readField(dir, name string) string {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize parses a sysfs cache size: a positive decimal count
// with an optional K, M or G suffix in binary units ("2048K", "1M").
func parseCacheSize(s string) (int64, bool) {
	shift := 0
	switch {
	case strings.HasSuffix(s, "K"):
		shift = 10
	case strings.HasSuffix(s, "M"):
		shift = 20
	case strings.HasSuffix(s, "G"):
		shift = 30
	}
	if shift > 0 {
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64>>shift {
		return 0, false
	}
	return n << shift, true
}

// reorderGate is one base's width gate: a call of width K can use the
// reordered plan only when K >= minK.
type reorderGate struct {
	l2   int64 // the L2 size the gate used, bytes
	cols int   // distinct columns the matrix references
	minK int   // smallest width whose X footprint reaches ¾·l2; math.MaxInt for never
}

// newReorderGate counts the columns m references (O(nnz)) and derives
// the gate from them. A Config that disables reordering gets a gate no
// width passes.
func newReorderGate(m *Matrix, cfg Config) reorderGate {
	g := reorderGate{l2: gateL2(), cols: referencedCols(m), minK: math.MaxInt}
	if !cfg.Disable {
		g.minK = minReorderK(g.cols, g.l2)
	}
	return g
}

// pass reports whether reordering can pay at width k.
func (g reorderGate) pass(k int) bool { return k >= g.minK }

// minReorderK returns the smallest K >= 1 with cols·K·4 >= ¾·l2, or
// math.MaxInt when no width reaches it (a matrix without nonzeros).
func minReorderK(cols int, l2 int64) int {
	need := gateNum * l2 // cols·K·4·gateDen >= need
	if need <= 0 {
		return 1
	}
	if cols <= 0 {
		return math.MaxInt
	}
	per := 4 * gateDen * int64(cols)
	return int(max(1, (need+per-1)/per))
}

// referencedCols counts the distinct columns m's nonzeros reference.
func referencedCols(m *Matrix) int {
	seen := make([]uint64, (m.Cols+63)/64)
	n := 0
	for _, c := range m.ColIdx {
		w, bit := c>>6, uint64(1)<<(c&63)
		if seen[w]&bit == 0 {
			seen[w] |= bit
			n++
		}
	}
	return n
}

// lazyBuild is an online pipeline's reordered plan, built at most once
// and in the background. start launches it, done closes when it
// settles, and a failed build records why instead of publishing a
// plan. Until start is called no build is in flight, so waiting on it
// returns at once.
type lazyBuild struct {
	started atomic.Bool
	done    chan struct{}
	val     atomic.Pointer[Pipeline]
	failed  atomic.Pointer[degradeReason]
}

// init readies b for use; the zero lazyBuild is not.
func (b *lazyBuild) init() { b.done = make(chan struct{}) }

// Load returns the built value, nil until the build lands and forever
// when it fails or never starts.
func (b *lazyBuild) Load() *Pipeline { return b.val.Load() }

// set publishes v as a build that has already landed.
func (b *lazyBuild) set(v *Pipeline) {
	b.started.Store(true)
	b.val.Store(v)
	close(b.done)
}

// fail publishes d as a build that has already failed.
func (b *lazyBuild) fail(d *degradeReason) {
	b.started.Store(true)
	b.failed.Store(d)
	close(b.done)
}

// start runs build in a background goroutine the first time it is
// called. The build runs under ctx, bounded by budget when positive;
// its error or panic is recorded as the failure. settle, when set,
// runs with the outcome after it is published and before done closes.
// With ring set the build runs under a "build_reordered" trace,
// annotated with width (the width of the call that started it) and
// pushed to ring when the build settles.
func (b *lazyBuild) start(ctx context.Context, budget time.Duration, ring *obs.TraceRing, width int,
	build func(context.Context) (*Pipeline, error), settle func(error)) {
	if b.started.Load() || !b.started.CompareAndSwap(false, true) {
		return
	}
	bctx, cancel := context.WithCancel(ctx)
	if budget > 0 {
		bctx, cancel = context.WithTimeout(ctx, budget)
	}
	go func() {
		defer close(b.done)
		defer cancel()
		var tr *obs.Trace
		if ring != nil {
			tr = obs.NewTrace("build_reordered")
			tr.Annotate("width", strconv.Itoa(width))
			bctx = obs.WithTrace(bctx, tr)
		}
		var v *Pipeline
		// Guard the whole build: stage-internal panics already surface
		// as errors, and this converts any residual glue-code panic too
		// — a background goroutine must never crash the process.
		err := par.Guard(func() (err error) {
			v, err = build(bctx)
			return err
		})
		if err != nil {
			b.failed.Store(&degradeReason{err: err})
		} else {
			b.val.Store(v)
		}
		if settle != nil {
			settle(err)
		}
		if tr != nil {
			outcome := "ok"
			if err != nil {
				outcome = "degraded"
			}
			tr.Annotate("outcome", outcome)
			tr.Finish(err)
			ring.Push(tr)
		}
	}()
}

// wait blocks until no build is in flight or ctx is done.
func (b *lazyBuild) wait(ctx context.Context) error {
	if !b.started.Load() {
		return nil
	}
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// idle reports, without blocking, whether no build is in flight.
func (b *lazyBuild) idle() bool {
	if !b.started.Load() {
		return true
	}
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// failure returns why the build failed, nil unless it did.
func (b *lazyBuild) failure() error {
	if d := b.failed.Load(); d != nil {
		return d.err
	}
	return nil
}

// state names the build's progress for /debug/explain: "none" before
// it starts, then "building", and "built" or "degraded" once it settles.
func (b *lazyBuild) state() string {
	switch {
	case !b.started.Load():
		return "none"
	case b.failed.Load() != nil:
		return "degraded"
	case b.val.Load() != nil:
		return "built"
	}
	return "building"
}

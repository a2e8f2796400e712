package kernels

// The execution engine: nnz-balanced chunking plus a persistent worker
// pool, shared by every kernel in this package.
//
// The seed implementation split [0, rows) into equal-row contiguous
// chunks, which breaks down on power-law matrices: one hub row with 10⁴
// nonzeros stalls its whole chunk while other workers idle. Instead the
// engine splits rows so each chunk carries roughly equal *work*
// (nonzeros, from the CSR RowPtr prefix sums — for ASpT, tile+rest
// nonzeros), the same idea as merge-based CSR partitioning
// (Merrill & Garland) and row-swizzle load balancing (Gale et al.).
// Chunks are oversubscribed (several per worker) and claimed with an
// atomic counter, so a skewed tail dynamically rebalances across
// workers instead of being pinned to a static assignment.
//
// Work is dispatched to a fixed pool of long-lived goroutines through a
// buffered channel, and per-call state lives in pooled job structs, so
// a steady-state kernel call performs no heap allocations — the
// property the *Into entry points advertise.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/sparse"
)

// chunksPerWorker is the oversubscription factor: more chunks per
// worker means finer-grained stealing for skewed tails at slightly more
// dispatch overhead.
const chunksPerWorker = 4

// rowChunk is a half-open row range [lo, hi).
type rowChunk struct{ lo, hi int }

// job carries one kernel invocation across the worker pool. All
// operand fields a particular kernel does not use stay nil. Jobs are
// pooled; reset clears operands but keeps the chunks slice capacity.
type job struct {
	run    func(j *job, lo, hi int) // a top-level function, never a closure
	chunks []rowChunk
	next   atomic.Int64
	wg     sync.WaitGroup

	// Failure state. ctx (nil = never cancelled) is observed between
	// chunk claims; the first worker error — an injected fault, a
	// recovered chunk panic, or the observed cancellation — parks in
	// fail and flips stop so the remaining chunks are skipped, and
	// dispatch returns it after the join. All of this costs two atomic
	// loads per chunk claim on the happy path, so the steady-state
	// zero-allocation property of the *Into kernels is preserved
	// (failure boxes allocate only on the failure path).
	ctx  context.Context
	stop atomic.Bool
	fail atomic.Pointer[failure]

	// Operands, interpreted by run.
	csr  *sparse.CSR
	tile *aspt.Matrix
	hyb  *ellpack.Hybrid
	x    *dense.Matrix
	y    *dense.Matrix
	dst  []int32     // row map: row i goes to output row dst[i]; nil = identity
	out  *sparse.CSR // SDDMM output

	// Attribution state (see metrics.go): attr is the per-kernel
	// aggregate selected by the entry point (nil disables chunk
	// timing); chunkNS/chunkMax/chunkCount accumulate per-chunk wall
	// times across the workers stealing from this job, and the entry
	// point flushes them via attr.recordPass after a successful
	// dispatch.
	attr       *kernelAttr
	chunkNS    atomic.Int64
	chunkMax   atomic.Int64
	chunkCount atomic.Int64

	// Merge-kernel state (see merge.go): when run is runSpMMMerge the
	// generic chunks slice holds {i, i+1} indices into mergeChunks, and
	// each chunk's head-fragment partial sums land in its carry slot
	// (carryRow[c] == -1 when chunk c carries nothing). The slices keep
	// their capacity across pooled reuse so steady-state calls stay
	// allocation-free.
	mergeChunks []mergeChunk
	carryRow    []int32
	carryVal    []float32
}

// outRow returns the output row that row i of an SpMM writes: y row
// dst[i], or y row i when the map is the identity.
func (j *job) outRow(i int) []float32 {
	if j.dst != nil {
		i = int(j.dst[i])
	}
	return j.y.Row(i)
}

// failure boxes the first error of a job (atomic.Pointer needs a
// concrete type).
type failure struct{ err error }

// recordFail parks the job's first error and stops chunk claiming.
func (j *job) recordFail(err error) {
	if err == nil {
		return
	}
	j.fail.CompareAndSwap(nil, &failure{err: err})
	j.stop.Store(true)
}

// err returns the job's recorded failure, if any.
func (j *job) err() error {
	if f := j.fail.Load(); f != nil {
		return f.err
	}
	return nil
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

func getJob() *job { return jobPool.Get().(*job) }

func putJob(j *job) {
	j.run = nil
	j.csr = nil
	j.tile = nil
	j.hyb = nil
	j.x = nil
	j.y = nil
	j.dst = nil
	j.out = nil
	j.chunks = j.chunks[:0]
	j.mergeChunks = j.mergeChunks[:0]
	j.next.Store(0)
	j.ctx = nil
	j.stop.Store(false)
	j.fail.Store(nil)
	j.attr = nil
	j.chunkNS.Store(0)
	j.chunkMax.Store(0)
	j.chunkCount.Store(0)
	jobPool.Put(j)
}

// workerPool is the process-wide executor: NumCPU long-lived goroutines
// draining a buffered job queue. Goroutines are parked in channel
// receive when idle and are additionally throttled by GOMAXPROCS, so a
// reduced GOMAXPROCS still serialises execution as expected.
var (
	workersOnce sync.Once
	jobQueue    chan *job
	poolSize    int
)

func startWorkers() {
	workersOnce.Do(func() {
		poolSize = runtime.NumCPU()
		if poolSize < 1 {
			poolSize = 1
		}
		jobQueue = make(chan *job, 8*poolSize)
		for w := 0; w < poolSize; w++ {
			go func() {
				for j := range jobQueue {
					j.steal()
					j.wg.Done()
				}
			}()
		}
	})
}

// steal claims chunks off the job's atomic cursor until none remain,
// the job has failed, or its context is cancelled, and reports how many
// chunks this goroutine ran (the work-stealing balance signal).
func (j *job) steal() int {
	n := int64(len(j.chunks))
	claimed := 0
	for {
		if j.stop.Load() {
			return claimed
		}
		if err := par.CtxErr(j.ctx); err != nil {
			j.recordFail(err)
			return claimed
		}
		i := j.next.Add(1) - 1
		if i >= n {
			return claimed
		}
		c := j.chunks[i]
		j.runChunk(c.lo, c.hi)
		claimed++
	}
}

// runChunk executes one chunk with panic isolation: a panic in the
// kernel body is recovered into a *par.PanicError and recorded as the
// job's failure instead of killing a pool goroutine (which would leak
// the pool slot and crash the process).
func (j *job) runChunk(lo, hi int) {
	defer j.recoverChunk()
	if err := faultinject.Fire("kernels.exec"); err != nil {
		j.recordFail(err)
		return
	}
	if j.attr == nil {
		j.run(j, lo, hi)
		return
	}
	start := time.Now()
	j.run(j, lo, hi)
	j.observeChunk(time.Since(start))
}

// observeChunk folds one chunk's wall time into the job's attribution
// accumulators and the kernel's chunk-latency histogram: two atomic
// adds, a CAS max, and one lock-free histogram Observe.
func (j *job) observeChunk(d time.Duration) {
	ns := int64(d)
	j.chunkNS.Add(ns)
	j.chunkCount.Add(1)
	for {
		old := j.chunkMax.Load()
		if ns <= old || j.chunkMax.CompareAndSwap(old, ns) {
			break
		}
	}
	j.attr.chunkSeconds.Observe(d.Seconds())
}

func (j *job) recoverChunk() {
	if r := recover(); r != nil {
		j.recordFail(par.NewPanicError(r))
	}
}

// appendBalancedChunks splits [0, rows) into at most nchunks contiguous
// chunks of roughly equal cumulative work, appending to dst. cum(i)
// must be the non-decreasing total work of rows [0, i) with cum(0) == 0
// (a CSR RowPtr is exactly this). Zero-work matrices fall back to
// equal-row chunks so every row is still visited (outputs must be
// zeroed). The returned chunks tile [0, rows) exactly.
func appendBalancedChunks(dst []rowChunk, rows int, cum func(int) int64, nchunks int) []rowChunk {
	if rows <= 0 {
		return dst
	}
	if nchunks > rows {
		nchunks = rows
	}
	if nchunks <= 1 {
		return append(dst, rowChunk{0, rows})
	}
	total := cum(rows)
	if total <= 0 {
		// No work anywhere: equal-row split.
		per := (rows + nchunks - 1) / nchunks
		for lo := 0; lo < rows; lo += per {
			hi := lo + per
			if hi > rows {
				hi = rows
			}
			dst = append(dst, rowChunk{lo, hi})
		}
		return dst
	}
	lo := 0
	for c := 1; c <= nchunks && lo < rows; c++ {
		var hi int
		if c == nchunks {
			hi = rows
		} else {
			// Smallest row index whose cumulative work reaches the c-th
			// equal share; never behind lo+1 so every chunk advances.
			target := total * int64(c) / int64(nchunks)
			hi = lo + 1 + searchCum(cum, lo+1, rows, target)
			if hi > rows {
				hi = rows
			}
		}
		dst = append(dst, rowChunk{lo, hi})
		lo = hi
	}
	return dst
}

// searchCum binary-searches the smallest i in [lo, hi] with
// cum(i) >= target, returned relative to lo.
func searchCum(cum func(int) int64, lo, hi int, target int64) int {
	base := lo
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - base
}

// dispatch partitions [0, rows) by cum and runs j.run over the chunks,
// the caller participating alongside up to GOMAXPROCS-1 pool workers.
// When the queue is saturated by concurrent callers the extra shares
// are simply not enqueued — the caller (and any worker that did accept)
// still drains every chunk, so saturation degrades to less parallelism,
// never to blocking or deadlock.
// An error return carries the job's first failure: the context's error,
// an injected fault, or a recovered worker panic (*par.PanicError).
func (j *job) dispatch(rows int, cum func(int) int64) error {
	if rows <= 0 {
		return par.CtxErr(j.ctx)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		if err := par.CtxErr(j.ctx); err != nil {
			return err
		}
		executorChunks.Observe(1)
		executorCallerRatio.Observe(1)
		j.runChunk(0, rows)
		return j.err()
	}
	j.chunks = appendBalancedChunks(j.chunks[:0], rows, cum, workers*chunksPerWorker)
	return j.dispatchChunks(workers)
}

// dispatchChunks runs j.run over the already-prepared j.chunks with up
// to workers participants (the caller plus pool goroutines). dispatch
// builds nnz-balanced row chunks and delegates here; kernels with a
// custom partition (the merge kernel splits on flat nonzero index, not
// rows) fill j.chunks themselves and call this directly. A single
// worker still drains every chunk — serially, with the same per-chunk
// cancellation and panic isolation as the parallel path.
func (j *job) dispatchChunks(workers int) error {
	if len(j.chunks) == 0 {
		return par.CtxErr(j.ctx)
	}
	executorChunks.Observe(float64(len(j.chunks)))
	if len(j.chunks) == 1 {
		c := j.chunks[0]
		if err := par.CtxErr(j.ctx); err != nil {
			return err
		}
		executorCallerRatio.Observe(1)
		j.runChunk(c.lo, c.hi)
		return j.err()
	}
	if workers > 1 {
		startWorkers()
		for w := 0; w < workers-1; w++ {
			j.wg.Add(1)
			select {
			case jobQueue <- j:
			default:
				j.wg.Done()
				w = workers // queue full; run with whoever already joined
			}
		}
	}
	mine := j.steal()
	j.wg.Wait()
	executorCallerRatio.Observe(float64(mine) / float64(len(j.chunks)))
	return j.err()
}

package kernels

import (
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// Kernel metrics live in the process-wide registry and are created once
// at init: the hot path only touches pre-registered histograms, whose
// Observe is lock-free and allocation-free, preserving the *Into
// kernels' zero-allocation guarantee.
var (
	kernelSpMMRowWise = obs.Default().Histogram("spmmrr_kernel_seconds",
		"Kernel execution latency by kernel variant.",
		obs.LatencyBuckets(), obs.L("kernel", "spmm_rowwise"))
	kernelSpMMASpT = obs.Default().Histogram("spmmrr_kernel_seconds",
		"Kernel execution latency by kernel variant.",
		obs.LatencyBuckets(), obs.L("kernel", "spmm_aspt"))
	kernelSpMMMerge = obs.Default().Histogram("spmmrr_kernel_seconds",
		"Kernel execution latency by kernel variant.",
		obs.LatencyBuckets(), obs.L("kernel", "spmm_merge"))
	kernelSpMMHybrid = obs.Default().Histogram("spmmrr_kernel_seconds",
		"Kernel execution latency by kernel variant.",
		obs.LatencyBuckets(), obs.L("kernel", "spmm_hyb"))
	kernelSDDMMRowWise = obs.Default().Histogram("spmmrr_kernel_seconds",
		"Kernel execution latency by kernel variant.",
		obs.LatencyBuckets(), obs.L("kernel", "sddmm_rowwise"))

	kernelSpMMBatch = obs.Default().Histogram("spmmrr_kernel_seconds",
		"Kernel execution latency by kernel variant.",
		obs.LatencyBuckets(), obs.L("kernel", "spmm_batch"))
	// Operands per batched pass: the effective-K amplification the
	// coalescing layer actually achieved (1 = nothing coalesced).
	kernelSpMMBatchOps = obs.Default().Histogram("spmmrr_kernel_batch_ops",
		"Operand pairs computed per batched SpMM pass.",
		obs.ExponentialBuckets(1, 2, 8))

	executorChunks = obs.Default().Histogram("spmmrr_executor_chunks_per_call",
		"nnz-balanced chunks produced per kernel dispatch.",
		obs.ExponentialBuckets(1, 2, 10))
	// The caller participates in stealing alongside the pool workers; the
	// fraction of chunks it ends up running measures work-stealing
	// balance (≈1/workers when balanced, →1 when the pool is saturated
	// and the caller drains everything itself).
	executorCallerRatio = obs.Default().Histogram("spmmrr_executor_caller_chunk_ratio",
		"Fraction of a dispatch's chunks executed by the calling goroutine.",
		obs.LinearBuckets(0.1, 0.1, 10))
)

// ---- Per-kernel performance attribution ----
//
// Each executor-backed kernel owns a kernelAttr aggregate: the chunked
// executor feeds it per-chunk wall times while a pass runs, and the
// entry point flushes pass totals (nnz processed, flops, modeled bytes,
// busy time) on success. Everything on the recording side is a
// pre-registered histogram Observe or an atomic add — lock-free and
// allocation-free, preserving the *Into kernels' zero-allocation
// contract. Derived rates (GFLOP/s, GB/s) are computed at scrape time
// by func-backed collectors.

// attrBytes models the effective memory traffic of one SpMM/SDDMM
// pass: 8 bytes per nonzero (float32 value + int32 column index),
// 4·K bytes of dense X read per nonzero, and 4·K bytes of dense output
// written per row. A coarse roofline-style estimate — it ignores cache
// reuse — but consistent across kernels, so relative GB/s is
// meaningful (see DESIGN.md §16).
func attrBytes(nnz, rows, k int) int64 {
	return int64(nnz)*int64(8+4*k) + int64(rows)*int64(4*k)
}

// imbalanceBuckets spans the max/mean chunk-time ratio: 1 is perfect
// balance, the chunksPerWorker=4 oversubscription should keep steady
// passes under ~4, and a pathological hub row shows up far right.
func imbalanceBuckets() []float64 {
	return []float64{1, 1.1, 1.25, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32}
}

// kernelAttr is the lock-free attribution aggregate for one kernel
// label.
type kernelAttr struct {
	label  string
	passes atomic.Int64
	chunks atomic.Int64
	nnz    atomic.Int64
	flops  atomic.Int64
	bytes  atomic.Int64
	busyNS atomic.Int64 // sum of per-chunk wall times across workers

	imbalance    *obs.Histogram // max/mean chunk wall time per pass
	chunkSeconds *obs.Histogram // individual chunk wall times
}

// attrs collects every kernel aggregate for Attribution(), in
// registration order.
var attrs []*kernelAttr

func newKernelAttr(label string) *kernelAttr {
	a := &kernelAttr{label: label}
	l := obs.L("kernel", label)
	a.imbalance = obs.Default().Histogram("spmmrr_kernel_imbalance",
		"Load-imbalance ratio (max/mean chunk wall time) per executor pass.",
		imbalanceBuckets(), l)
	a.chunkSeconds = obs.Default().Histogram("spmmrr_kernel_chunk_seconds",
		"Wall time of individual executor chunks.",
		obs.FineLatencyBuckets(), l)
	obs.Default().CounterFunc("spmmrr_kernel_passes_total",
		"Completed executor passes by kernel.", a.passes.Load, l)
	obs.Default().CounterFunc("spmmrr_kernel_nnz_total",
		"Nonzeros processed by completed executor passes.", a.nnz.Load, l)
	obs.Default().GaugeFunc("spmmrr_kernel_gflops",
		"Effective GFLOP/s over all completed passes (2·nnz·K / busy time).",
		a.gflops, l)
	obs.Default().GaugeFunc("spmmrr_kernel_gbps",
		"Effective GB/s over all completed passes (modeled bytes / busy time).",
		a.gbps, l)
	attrs = append(attrs, a)
	return a
}

// gflops returns cumulative flops per busy nanosecond, which is
// numerically GFLOP/s (1e9 flops / 1e9 ns).
func (a *kernelAttr) gflops() float64 {
	ns := a.busyNS.Load()
	if ns == 0 {
		return 0
	}
	return float64(a.flops.Load()) / float64(ns)
}

// gbps returns cumulative modeled bytes per busy nanosecond (GB/s).
func (a *kernelAttr) gbps() float64 {
	ns := a.busyNS.Load()
	if ns == 0 {
		return 0
	}
	return float64(a.bytes.Load()) / float64(ns)
}

// recordPass flushes one completed pass from the job's chunk
// accumulators into the aggregate: entry points call it after a
// successful dispatch, before the job returns to the pool. Atomic adds
// only — no allocations.
func (a *kernelAttr) recordPass(j *job, nnz, rows, k int) {
	n := j.chunkCount.Load()
	if n == 0 {
		return
	}
	sum := j.chunkNS.Load()
	if sum > 0 {
		a.imbalance.Observe(float64(j.chunkMax.Load()) * float64(n) / float64(sum))
	}
	a.passes.Add(1)
	a.chunks.Add(n)
	a.busyNS.Add(sum)
	a.nnz.Add(int64(nnz))
	a.flops.Add(int64(Flops(nnz, k)))
	a.bytes.Add(attrBytes(nnz, rows, k))
}

// Per-kernel attribution aggregates, one per executor-backed kernel
// label. The batched pass is attributed through the kernel it
// delegates to.
var (
	attrSpMMRowWise  = newKernelAttr("spmm_rowwise")
	attrSpMMASpT     = newKernelAttr("spmm_aspt")
	attrSpMMMerge    = newKernelAttr("spmm_merge")
	attrSpMMHybrid   = newKernelAttr("spmm_hyb")
	attrSDDMMRowWise = newKernelAttr("sddmm_rowwise")
)

// AttributionSummary is one kernel's realized-performance aggregate,
// as served by /debug/explain.
type AttributionSummary struct {
	Kernel        string  `json:"kernel"`
	Passes        int64   `json:"passes"`
	Chunks        int64   `json:"chunks"`
	NNZ           int64   `json:"nnz"`
	BusySeconds   float64 `json:"busy_seconds"`
	GFLOPS        float64 `json:"gflops"`
	GBPS          float64 `json:"gbps"`
	MeanImbalance float64 `json:"mean_imbalance"`
}

// Attribution returns the attribution summary of every kernel that has
// completed at least one pass this process, sorted by kernel label.
func Attribution() []AttributionSummary {
	out := make([]AttributionSummary, 0, len(attrs))
	for _, a := range attrs {
		p := a.passes.Load()
		if p == 0 {
			continue
		}
		s := AttributionSummary{
			Kernel:      a.label,
			Passes:      p,
			Chunks:      a.chunks.Load(),
			NNZ:         a.nnz.Load(),
			BusySeconds: float64(a.busyNS.Load()) / 1e9,
			GFLOPS:      a.gflops(),
			GBPS:        a.gbps(),
		}
		if h := a.imbalance.Snapshot(); h.Count > 0 {
			s.MeanImbalance = h.Sum / float64(h.Count)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

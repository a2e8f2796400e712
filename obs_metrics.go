package repro

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Online-strategy metrics live in the process-wide registry: the trial
// is a property of the workload (which plan wins on this hardware for
// these shapes), so aggregating across pipelines is what an operator
// wants on a dashboard. Per-request serving metrics, by contrast, are
// per-Server (see NewServer).
var (
	onlineTrialsReordered = obs.Default().Counter("spmmrr_online_trials_total",
		"First-iteration trials decided, by winning plan.", obs.L("winner", "reordered"))
	onlineTrialsPlain = obs.Default().Counter("spmmrr_online_trials_total",
		"First-iteration trials decided, by winning plan.", obs.L("winner", "plain"))
	onlineWinnerFlips = obs.Default().Counter("spmmrr_online_winner_flips_total",
		"Consecutive trial decisions that disagreed with the previous one.")
	onlineDegraded = obs.Default().Counter("spmmrr_online_degraded_total",
		"Background reordered builds abandoned (budget, cancellation, error, panic).")
	onlineTrialRRSeconds = obs.Default().GaugeFloat("spmmrr_online_trial_reordered_seconds",
		"Reordered-plan wall time measured by the most recent trial.")
	onlineTrialNRSeconds = obs.Default().GaugeFloat("spmmrr_online_trial_plain_seconds",
		"No-reorder-plan wall time measured by the most recent trial.")

	// lastTrialWinner tracks the previous decision across all pipelines
	// in the process: 0 = none yet, 1 = reordered, 2 = plain.
	lastTrialWinner atomic.Int32

	// Kernel-choice counters, one per strategy, bumped when a pipeline
	// is constructed: the distribution shows which kernels the autotuner
	// actually selects on the workload's matrices.
	kernelChoiceRowWise = obs.Default().Counter("spmmrr_kernel_choice_total",
		"Pipelines constructed, by selected SpMM kernel.", obs.L("kernel", "rowwise"))
	kernelChoiceMerge = obs.Default().Counter("spmmrr_kernel_choice_total",
		"Pipelines constructed, by selected SpMM kernel.", obs.L("kernel", "merge"))

	// Row-panel sharding: the panel-count distribution shows how the
	// nnz threshold actually splits the workload's matrices (all-ones =
	// sharding configured but never triggering).
	shardPanelsBuilt = obs.Default().Histogram("spmmrr_shard_panels",
		"Row panels per constructed ShardedPipeline.",
		obs.ExponentialBuckets(1, 2, 8))

	// Autotuner feedback: windows of observed serving throughput in
	// which the trial winner underperformed the measured trial loser —
	// the signal that the one-shot §4 decision (or the structural
	// autotune) no longer matches the live workload. Observability
	// only: the plan is never flipped mid-serve.
	autotuneMispicks = obs.Default().Counter("spmmrr_autotune_mispick_total",
		"Feedback windows where the serving plan underperformed the trial loser.")
)

// recordShardPanels publishes a constructed sharded pipeline's panel
// count to the process registry.
func recordShardPanels(n int) { shardPanelsBuilt.Observe(float64(n)) }

// recordKernelChoice publishes a constructed pipeline's kernel to the
// process registry, booked as Pipeline.SpMMIntoCtx dispatches it.
func recordKernelChoice(k Kernel) {
	if k == KernelMerge {
		kernelChoiceMerge.Inc()
	} else {
		kernelChoiceRowWise.Inc()
	}
}

// recordMispick publishes one autotuner-feedback mispick window to the
// process registry.
func recordMispick() { autotuneMispicks.Inc() }

// recordTrial publishes one decided trial to the process registry.
func recordTrial(reorderedWon bool, rrTime, nrTime time.Duration) {
	cur := int32(2)
	if reorderedWon {
		cur = 1
		onlineTrialsReordered.Inc()
	} else {
		onlineTrialsPlain.Inc()
	}
	if prev := lastTrialWinner.Swap(cur); prev != 0 && prev != cur {
		onlineWinnerFlips.Inc()
	}
	onlineTrialRRSeconds.SetDuration(rrTime)
	onlineTrialNRSeconds.SetDuration(nrTime)
}

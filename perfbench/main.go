// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time from a seed and prints,
// as its last line, a JSON object with the end-to-end metrics (or, with
// --trace 1, the per-layer metrics). See README.md for the workloads,
// the metrics and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one invocation: the parsed flags, the operation
// ledger behind ok_ratio, the metrics, and the run record (trial
// decisions, host conditions, sample counts) printed before the result.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	scale    float64 // row-count multiplier; 1 in every measured run
	traced   bool
	tr       *tracer // nil unless traced

	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  error
	metrics   map[string]metric
	record    map[string]any
	trials    []trialRecord
	trialSeen map[string]bool

	checkTimes samples // every output check, for integrity.check_ms

	// Flops and wall time of the untraced [0] and traced [1] parts of
	// the measured phase.
	partFlops [2]float64
	partWall  [2]time.Duration
}

// endToEnd names every end-to-end metric with its unit; every workload
// reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"gflops", "GFLOP/s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"},
	{"ok_ratio", "ratio"}, {"mem_mb", "MB"}, {"sim_gflops", "GFLOP/s"},
	{"reskin_ms", "ms"}, {"overlay_ms", "ms"}, {"stale_s", "s"},
}

// perLayer names every per-layer metric with its unit; every traced run
// reports all of them.
var perLayer = []struct{ name, unit string }{
	{"lsh.signatures_ms", "ms"}, {"lsh.pairs_ms", "ms"}, {"lsh.pairs", "count"},
	{"reorder.cluster_ms", "ms"}, {"reorder.preprocess_ms", "ms"}, {"reorder.self_ms", "ms"},
	{"aspt.build_ms", "ms"}, {"aspt.dense_ratio", "ratio"},
	{"gpusim.dram_mb", "MB"}, {"gpusim.l2_hit", "ratio"}, {"gpusim.speedup", "x"},
	{"kernels.spmm_ms", "ms"}, {"kernels.sddmm_ms", "ms"}, {"kernels.gbps", "GB/s"},
	{"roof.copy_gbps", "GB/s"}, {"kernels.roof_frac", "ratio"},
	{"dense.permute_ms", "ms"}, {"pipeline.spmm_ms", "ms"}, {"pipeline.self_ms", "ms"},
	{"server.spmm_ms", "ms"}, {"server.self_ms", "ms"},
	{"serve.join_ratio", "ratio"}, {"serve.batch_ops", "count"}, {"dense.stack_ms", "ms"},
	{"shard.spmm_ms", "ms"}, {"shard.panels", "count"},
	{"integrity.check_ms", "ms"}, {"integrity.checked", "count"},
	{"online.trial_rr_won", "ratio"}, {"online.trial_margin", "ratio"},
	{"live.reskin_ms", "ms"}, {"live.overlay_ms", "ms"}, {"live.clean_serve_ms", "ms"},
	{"live.overlay_serve_ms", "ms"}, {"live.fold_ms", "ms"}, {"live.swaps", "count"},
	{"live.reskins", "count"}, {"live.rebuilds_failed", "count"}, {"plancache.hit_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = map[string]func(*bench) error{
	"train": runTrain,
	"serve": runServe,
	"live":  runLive,
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runMain runs one invocation, writing the run record and the result
// line to stdout, and returns the process exit code.
func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: train, serve or live")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scale := fs.Float64("scale", 1, "row-count multiplier (the smoke test uses a small one)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload train|serve|live, --seconds > 0, --trace 0|1 (got %q, %v, %d)\n",
			*workload, *seconds, *trace)
		return 2
	}
	b := &bench{
		workload: *workload, seed: *seed, scale: *scale,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		metrics: map[string]metric{}, record: map[string]any{},
		trialSeen: map[string]bool{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	b.recordHost()
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	return b.finish(stdout)
}

// op books one attempted operation; err is its failure (a returned
// error or a failed output check).
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
	}
}

func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.metrics[name] = metric{Value: v}
	b.mu.Unlock()
}

func (b *bench) note(key string, v any) {
	b.mu.Lock()
	b.record[key] = v
	b.mu.Unlock()
}

// rows scales a base row count for the smoke test, keeping it a
// multiple of 64 (one ASpT panel).
func (b *bench) rows(base int) int {
	n := int(float64(base)*b.scale) / 64 * 64
	return max(n, 256)
}

// finish prints the run record and the result line and returns the exit
// code: 0 when every operation succeeded and passed its output check.
func (b *bench) finish(w io.Writer) int {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	if b.traced {
		b.metrics["trace.overhead_ratio"] = metric{Value: b.overheadRatio()}
	} else {
		if b.attempted > 0 {
			b.metrics["ok_ratio"] = metric{Value: float64(b.attempted-b.failed) / float64(b.attempted)}
		}
		b.metrics["mem_mb"] = metric{Value: peakRSSMB()}
		b.record["roof.copy_gbps"] = roofCopyGBps() // after mem_mb: its buffers are not the workload's
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, m := range want {
		v, ok := b.metrics[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	sort.Strings(missing)
	res.Correct = b.failed == 0 && b.attempted > 0 && len(missing) == 0
	b.record["trials"] = append([]trialRecord{}, b.trials...)
	if b.firstErr != nil {
		b.record["first_error"] = b.firstErr.Error()
	}
	if len(missing) > 0 {
		b.record["missing_metrics"] = missing
	}
	if b.tr != nil {
		path, err := b.tr.writeOut(b.workload, b.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
		b.record["spans_file"] = path
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": b.record}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed (first: %v), missing metrics %v\n",
			b.workload, b.failed, b.attempted, b.firstErr, missing)
		return 1
	}
	return 0
}

// errNoSamples reports a measured phase too short to produce a sample.
var errNoSamples = errors.New("no completed operations in the measured phase")

// Command spmmrr is the end-user CLI of the library: it loads (or
// generates) a sparse matrix, runs the row-reordering preprocessing
// pipeline, reports the plan metrics, simulates SpMM/SDDMM on the P100
// device model for each execution strategy, and optionally writes the
// reordered matrix back out.
//
// Usage:
//
//	spmmrr -in matrix.mtx [-k 512] [-op spmm|sddmm|both] [-mode auto|force|off|trial]
//	       [-out reordered.mtx] [-exec] [-breakdown] [-mergeorder]
//	       [-saveplan p.plan | -loadplan p.plan]
//	spmmrr -gen scrambled [-rows 16384] ...
//	spmmrr -dir corpus/ [-k 512]       # batch summary over .mtx files
//	spmmrr -in matrix.mtx -serve [-plandir plans/] [-serve-duration 30s]
//	       [-obs-listen 127.0.0.1:9090]   # /metrics, /healthz, /readyz, /debug/traces, /debug/pprof
//	       [-mutate-rate 10ms]            # live row mutations under load (overlay + plan swaps)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/gpusim"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func main() {
	var (
		in        = flag.String("in", "", "input Matrix Market file")
		gen       = flag.String("gen", "", "generate instead of reading: uniform|scrambled|clustered|banded|rmat|diagonal")
		rows      = flag.Int("rows", 16384, "rows for -gen")
		seed      = flag.Int64("seed", 42, "seed for -gen")
		k         = flag.Int("k", 512, "dense matrix width K")
		op        = flag.String("op", "both", "kernel to report: spmm|sddmm|both")
		mode      = flag.String("mode", "auto", "reordering mode: auto (the §4 heuristics), force (both rounds), off (plain ASpT), trial (trial-and-error autotune)")
		mergeOrd  = flag.Bool("mergeorder", false, "emit clusters in merge order (extension; see EXPERIMENTS.md)")
		breakdown = flag.Bool("breakdown", false, "print the simulated DRAM traffic breakdown per system")
		out       = flag.String("out", "", "write the reordered matrix to this Matrix Market file")
		exec      = flag.Bool("exec", false, "also execute the kernels natively (CPU) and verify the reordered result")
		savePlan  = flag.String("saveplan", "", "write the preprocessing plan (permutations) to this file")
		loadPlan  = flag.String("loadplan", "", "reuse a plan written by -saveplan instead of preprocessing")
		dir       = flag.String("dir", "", "batch mode: evaluate every .mtx file in this directory and print a summary table")
		serve     = flag.Bool("serve", false, "serving mode: host the matrix behind the resilient Server until SIGINT/SIGTERM (graceful drain)")
		planDir   = flag.String("plandir", "", "with -serve: plan snapshot directory for warm start and shutdown snapshot")
		serveFor  = flag.Duration("serve-duration", 0, "with -serve: stop automatically after this long (0 = run until a signal)")
		obsListen = flag.String("obs-listen", "", "with -serve: expose /metrics, /healthz, /readyz, /debug/traces and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty = no listener)")
		coalesce  = flag.Duration("coalesce-window", 0, "with -serve: once every CPU (GOMAXPROCS) already runs a pass for the matrix, coalesce further SpMM requests into one kernel pass at the combined width, launched when a running pass returns or after at most this wait (0 = off; try 200us-1ms)")
		shardNNZ  = flag.Int("shard-nnz", 0, "with -serve: split matrices above this many nonzeros into nnz-balanced row panels, each served by its own pipeline (0 = off)")
		mutRate   = flag.Duration("mutate-rate", 0, "with -serve: submit one live row mutation through the mutation path per interval — value re-skins and structural row replacements alternate, exercising overlay serving and background plan swaps under load (0 = off; try 5ms-50ms)")
		verifyFr  = flag.Float64("verify-fraction", 0, "with -serve: shadow-verify this fraction of requests by recomputing sampled output rows with the reference kernel on the original matrix; a confirmed mismatch quarantines the transformed plans until a rebuild passes probation (0 = off; try 0.01)")
		explain   = flag.Bool("explain", false, "with -serve: print the default tenant's /debug/explain document (plan fingerprint, kernel verdict, trial, attribution, SLO) as JSON at drain")
	)
	flag.Parse()

	if *dir != "" {
		if err := batchCompare(*dir, *k); err != nil {
			fatal(err)
		}
		return
	}

	m, err := loadMatrix(*in, *gen, *rows, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("matrix: %s", sparse.ProfileOf(m))

	cfg := repro.DefaultConfig()
	cfg.EmitMergeOrder = *mergeOrd
	if *serve {
		opts := serveOptions{
			planDir:        *planDir,
			duration:       *serveFor,
			k:              *k,
			obsListen:      *obsListen,
			coalesceWindow: *coalesce,
			shardNNZ:       *shardNNZ,
			mutateRate:     *mutRate,
			verifyFraction: *verifyFr,
			explain:        *explain,
		}
		if err := runServe(m, cfg, opts); err != nil {
			fatal(err)
		}
		return
	}
	dev := repro.P100()
	var pipe *repro.Pipeline
	if *loadPlan != "" {
		f, err := os.Open(*loadPlan)
		if err != nil {
			fatal(err)
		}
		pipe, err = repro.NewPipelineFromSavedPlan(m, cfg, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan loaded from %s (no LSH/clustering run)\n", *loadPlan)
	}
	if pipe == nil {
		switch *mode {
		case "auto":
			pipe, err = repro.NewPipeline(m, cfg)
		case "force":
			cfg.Force = true
			pipe, err = repro.NewPipeline(m, cfg)
		case "off":
			pipe, err = repro.NewPipelineNR(m, cfg)
		case "trial":
			pipe, err = repro.AutoTune(m, cfg, dev, *k)
		default:
			fatal(fmt.Errorf("unknown mode %q", *mode))
		}
		if err != nil {
			fatal(err)
		}
	}
	if *savePlan != "" {
		f, err := os.Create(*savePlan)
		if err != nil {
			fatal(err)
		}
		if err := pipe.SavePlan(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("plan written to %s\n", *savePlan)
	}
	plan := pipe.Plan()
	fmt.Println("plan:", plan.Describe())

	withBreakdown = *breakdown
	if *op == "spmm" || *op == "both" {
		reportOp(dev, m, plan, *k, false)
	}
	if *op == "sddmm" || *op == "both" {
		reportOp(dev, m, plan, *k, true)
	}

	if *exec {
		if err := verifyNative(m, pipe, *k); err != nil {
			fatal(err)
		}
		fmt.Println("native execution: reordered results match row-wise baseline")
	}

	if *out != "" {
		if err := sparse.WriteMTXFile(*out, plan.Reordered); err != nil {
			fatal(err)
		}
		fmt.Printf("reordered matrix written to %s\n", *out)
	}
}

// batchCompare evaluates every Matrix Market file in dir with the three
// execution strategies and prints one summary row per matrix — the
// harness to point at a directory of downloaded SuiteSparse matrices.
func batchCompare(dir string, k int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	dev := repro.P100()
	cfg := repro.DefaultConfig()
	fmt.Printf("%-36s %10s %7s %7s %9s %9s %6s\n",
		"matrix", "nnz", "dense0", "dense1", "rr/row", "rr/nr", "pre")
	found := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".mtx") {
			continue
		}
		found++
		path := filepath.Join(dir, e.Name())
		m, err := repro.ReadMatrixMarketFile(path)
		if err != nil {
			return err
		}
		rr, err := repro.NewPipeline(m, cfg)
		if err != nil {
			return err
		}
		nr, err := repro.NewPipelineNR(m, cfg)
		if err != nil {
			return err
		}
		base, err := repro.EstimateSpMMRowWise(dev, m, k)
		if err != nil {
			return err
		}
		sRR, err := rr.EstimateSpMM(dev, k)
		if err != nil {
			return err
		}
		sNR, err := nr.EstimateSpMM(dev, k)
		if err != nil {
			return err
		}
		fmt.Printf("%-36s %10d %6.1f%% %6.1f%% %8.2fx %8.2fx %6s\n",
			strings.TrimSuffix(e.Name(), ".mtx"), m.NNZ(),
			100*rr.Plan().DenseRatioBefore, 100*rr.Plan().DenseRatioAfter,
			sRR.Speedup(base), sRR.Speedup(sNR),
			rr.Plan().Preprocess.Round(time.Millisecond))
	}
	if found == 0 {
		return fmt.Errorf("no .mtx files in %s", dir)
	}
	return nil
}

func loadMatrix(in, gen string, rows int, seed int64) (*repro.Matrix, error) {
	switch {
	case in != "":
		return repro.ReadMatrixMarketFile(in)
	case gen != "":
		switch gen {
		case "uniform":
			return synth.Uniform(rows, rows, 16, seed)
		case "scrambled":
			return repro.GenerateScrambledClusters(rows, rows, rows/8, seed)
		case "clustered":
			return synth.Clustered(synth.ClusterParams{
				Rows: rows, Cols: rows, Clusters: rows / 8,
				PrototypeNNZ: 24, Keep: 0.8, Noise: 2, Seed: seed,
			})
		case "banded":
			return synth.Banded(rows, rows, 64, 16, seed)
		case "rmat":
			scale := 0
			for 1<<scale < rows {
				scale++
			}
			return repro.GenerateRMAT(scale, 16, seed)
		case "diagonal":
			return synth.Diagonal(rows, 1, seed)
		default:
			return nil, fmt.Errorf("unknown -gen family %q", gen)
		}
	default:
		return nil, fmt.Errorf("one of -in or -gen is required")
	}
}

// withBreakdown toggles traffic-breakdown printing in reportOp.
var withBreakdown bool

func reportOp(dev repro.Device, m *repro.Matrix, plan *repro.Plan, k int, sddmm bool) {
	name := "SpMM"
	var base, nr, rr *gpusim.Stats
	var err error
	nrPlan, err2 := reorder.PreprocessNR(m, plan.Cfg)
	if err2 != nil {
		fatal(err2)
	}
	if sddmm {
		name = "SDDMM"
		base, err = gpusim.SDDMMRowWise(dev, m, k, nil)
		if err == nil {
			nr, err = gpusim.SDDMMASpT(dev, nrPlan.Tiled, nrPlan.RestOrder, k)
		}
		if err == nil {
			rr, err = gpusim.SDDMMASpT(dev, plan.Tiled, plan.RestOrder, k)
		}
	} else {
		base, err = gpusim.SpMMRowWise(dev, m, k, nil)
		if err == nil {
			nr, err = gpusim.SpMMASpT(dev, nrPlan.Tiled, nrPlan.RestOrder, k)
		}
		if err == nil {
			rr, err = gpusim.SpMMASpT(dev, plan.Tiled, plan.RestOrder, k)
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s simulation on %s (K=%d):\n", name, dev.Name, k)
	fmt.Printf("  row-wise  %v\n  aspt-nr   %v\n  aspt-rr   %v\n", base, nr, rr)
	fmt.Printf("  speedup: aspt-rr vs row-wise %.2fx, vs aspt-nr %.2fx\n",
		rr.Speedup(base), rr.Speedup(nr))
	if withBreakdown {
		fmt.Print(base.Breakdown())
		fmt.Print(rr.Breakdown())
	}
}

func verifyNative(m *repro.Matrix, pipe *repro.Pipeline, k int) error {
	x := repro.NewRandomDense(m.Cols, k, 1)
	want, err := repro.SpMM(m, x)
	if err != nil {
		return err
	}
	got, err := pipe.SpMM(x)
	if err != nil {
		return err
	}
	for i := range want.Data {
		d := want.Data[i] - got.Data[i]
		if d > 1e-3 || d < -1e-3 {
			return fmt.Errorf("native verification failed at element %d (Δ=%v)", i, d)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spmmrr: %v\n", err)
	os.Exit(1)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/faultinject"
)

// serveOptions collects the -serve mode's knobs.
type serveOptions struct {
	planDir        string
	duration       time.Duration
	k              int
	obsListen      string
	coalesceWindow time.Duration
	shardNNZ       int
	mutateRate     time.Duration
	verifyFraction float64
	explain        bool
}

// runServe hosts m behind the full serving stack (admission control,
// retry, per-tenant plan health, durable plans, and — when configured —
// request coalescing and row-panel sharding) and drives it with a
// self-generated SpMM load until SIGINT/SIGTERM arrives or the optional
// duration elapses. Shutdown is graceful: the load stops, in-flight
// requests drain through Server.Close, and — with a plan directory
// configured — the plan cache is snapshotted so the next run warm
// starts without redoing LSH or clustering. With obsListen non-empty an
// HTTP observability listener is hosted on that address for the life of
// the server: /metrics (Prometheus text), /healthz, /readyz,
// /debug/traces, and /debug/pprof.
func runServe(m *repro.Matrix, cfg repro.Config, opts serveOptions) error {
	if opts.planDir != "" {
		n, err := repro.LoadPlanDir(opts.planDir)
		if err != nil {
			return err
		}
		fmt.Printf("serve: warm start from %s (%d plan snapshot(s))\n", opts.planDir, n)
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, cancelRun := context.WithCancel(sigCtx)
	defer cancelRun()

	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{
		DefaultDeadline: 2 * time.Second,
		PlanDir:         opts.planDir,
		CoalesceWindow:  opts.coalesceWindow,
		ShardNNZ:        opts.shardNNZ,
		VerifyFraction:  opts.verifyFraction,
	})
	if err != nil {
		return err
	}
	k := opts.k
	ex, err := s.Explain(repro.DefaultTenant)
	if err != nil {
		return err
	}
	// A sharded matrix gates each panel on its own: report the panel
	// that reorders from the narrowest width.
	minK := ex.Trial.MinReorderK
	for _, p := range ex.Panels {
		if g := p.Trial.MinReorderK; g > 0 && (minK == 0 || g < minK) {
			minK = g
		}
	}
	gate := "no width reaches the reorder gate"
	if minK > 0 {
		gate = fmt.Sprintf("reordered plan builds once a request has K >= %d", minK)
	}
	if sh := s.Sharded(); sh != nil {
		fmt.Printf("serve: accepting requests (K=%d); matrix sharded into %d row panels, no-reorder plans ready, %s\n",
			k, sh.Panels(), gate)
	} else {
		fmt.Printf("serve: accepting requests (K=%d); no-reorder plan ready, %s\n", k, gate)
	}
	if opts.coalesceWindow > 0 {
		fmt.Printf("serve: coalescing concurrent requests into batched passes (wait capped at %v)\n", opts.coalesceWindow)
	}
	if opts.verifyFraction > 0 {
		fmt.Printf("serve: shadow-verifying %.2g of requests against the reference kernel\n", opts.verifyFraction)
	}

	// Live mutator: alternate value re-skins with structural row
	// replacements at the configured rate, so the matrix keeps changing
	// under the serving load — overlay rows accumulate, background
	// re-preprocessing runs, and fresh plans swap in atomically while
	// requests are in flight.
	var mutDone chan struct{}
	if opts.mutateRate > 0 {
		fmt.Printf("serve: mutating one live row every %v (value re-skins alternate with structural replacements)\n",
			opts.mutateRate)
		mutDone = make(chan struct{})
		go func() {
			defer close(mutDone)
			rng := rand.New(rand.NewSource(1))
			tick := time.NewTicker(opts.mutateRate)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
				}
				cur := s.Live().Matrix()
				r := rng.Intn(cur.Rows)
				var mu repro.Mutation
				if cols := cur.RowCols(r); i%2 == 0 && len(cols) > 0 {
					mu.UpdateValues = []repro.ValueUpdate{{
						Row: r, Col: int(cols[rng.Intn(len(cols))]), Val: rng.Float32()*2 - 1,
					}}
				} else {
					def := repro.RowDef{Cols: make([]int32, 0, 8), Vals: make([]float32, 0, 8)}
					for c := rng.Intn(cur.Cols); c < cur.Cols; c += 1 + rng.Intn(cur.Cols/4+1) {
						def.Cols = append(def.Cols, int32(c))
						def.Vals = append(def.Vals, rng.Float32()*2-1)
						if len(def.Cols) == 8 {
							break
						}
					}
					mu.ReplaceRows = []repro.RowUpdate{{Row: r, Def: def}}
				}
				if err := s.Mutate(runCtx, mu); err != nil && runCtx.Err() == nil {
					fmt.Fprintf(os.Stderr, "serve: mutation rejected: %v\n", err)
				}
			}
		}()
	}

	var obsSrv *http.Server
	if opts.obsListen != "" {
		if err := faultinject.Fire("obs.listen"); err != nil {
			return fmt.Errorf("observability listener: %w", err)
		}
		ln, err := net.Listen("tcp", opts.obsListen)
		if err != nil {
			return fmt.Errorf("observability listener: %w", err)
		}
		obsSrv = &http.Server{Handler: s.ObsHandler()}
		go obsSrv.Serve(ln)
		fmt.Printf("serve: observability on http://%s\n", ln.Addr())
	}

	// One load client normally; several when coalescing, so requests
	// arrive while a pass runs and the batched pass is exercised.
	clients := 1
	if opts.coalesceWindow > 0 {
		clients = 4
	}
	var completed, failed atomic.Int64
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				x := repro.NewRandomDense(m.Cols, k, int64(7+c))
				y := repro.NewDense(m.Rows, k)
				for runCtx.Err() == nil {
					if err := s.SpMMInto(runCtx, y, x); err != nil {
						if runCtx.Err() != nil {
							return
						}
						failed.Add(1)
						continue
					}
					completed.Add(1)
				}
			}(c)
		}
		wg.Wait()
	}()

	if opts.duration > 0 {
		select {
		case <-sigCtx.Done():
		case <-time.After(opts.duration):
		}
	} else {
		<-sigCtx.Done()
	}
	stop() // a second signal from here on kills the process the hard way
	cancelRun()
	<-loadDone
	if mutDone != nil {
		<-mutDone
	}

	fmt.Println("serve: shutdown requested, draining in-flight requests")
	closeCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Close(closeCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if obsSrv != nil {
		// The metrics listener outlives the drain so a final scrape can
		// observe the fully settled counters, then shuts down cleanly.
		if err := obsSrv.Shutdown(closeCtx); err != nil {
			return fmt.Errorf("observability shutdown: %w", err)
		}
	}

	st := s.Stats()
	ex, err = s.Explain(repro.DefaultTenant)
	if err != nil {
		return err
	}
	trial := trialOutcome(ex.Trial)
	if len(ex.Panels) > 0 {
		// One outcome per panel, counted: "sharded (4 panels: 3 no
		// reorder trial, 1 trial chose reordered)".
		counts := map[string]int{}
		for _, p := range ex.Panels {
			counts[trialOutcome(p.Trial)]++
		}
		outcomes := make([]string, 0, len(counts))
		for o, n := range counts {
			outcomes = append(outcomes, fmt.Sprintf("%d %s", n, o))
		}
		sort.Strings(outcomes)
		trial = fmt.Sprintf("sharded (%d panels: %s)", len(ex.Panels), strings.Join(outcomes, ", "))
	}
	fmt.Printf("serve: drained; %d completed, %d failed, %d cancelled, %d shed, %d retries, breaker %s, %s\n",
		st.Completed, st.Failed, st.Cancelled, st.Admission.Shed, st.Retries, ex.Integrity.Path, trial)
	if ts, ok := s.TenantStats(repro.DefaultTenant); ok && opts.coalesceWindow > 0 {
		fmt.Printf("serve: coalescing %d leads, %d joins, %d excised\n",
			ts.Coalesce.Leads, ts.Coalesce.Joins, ts.Coalesce.Excised)
	}
	if opts.mutateRate > 0 {
		lst := s.Live().Stats()
		fmt.Printf("serve: live mutation epoch %d (%d mutations, %d re-skins, %d plan swaps, %d rebuilds, degraded=%v), overlay %d rows at drain\n",
			lst.Epoch, lst.Mutations, lst.Reskins, lst.Swaps, lst.RebuildsStarted, lst.Degraded,
			lst.OverlayRows+lst.TailRows)
	}
	if opts.verifyFraction > 0 {
		if ts, ok := s.TenantStats(repro.DefaultTenant); ok {
			ig := ts.Integrity
			fmt.Printf("serve: integrity %d verified clean, %d mismatches, %d skipped; %d quarantines, %d reinstated, %d still quarantined\n",
				ig.ChecksClean, ig.ChecksMismatch, ig.ChecksSkipped,
				ig.Quarantines, ig.Reinstated, ig.StillQuarantined)
		}
	}
	if opts.explain {
		// The explain document reads state that survives the drain
		// (atomics, registries), so printing it here reflects the final
		// settled picture — the same JSON /debug/explain served live.
		ex, err := s.Explain(repro.DefaultTenant)
		if err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		b, err := json.MarshalIndent(ex, "", "  ")
		if err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		fmt.Printf("serve: explain %s\n%s\n", repro.DefaultTenant, b)
	}
	if opts.planDir != "" {
		entries, err := os.ReadDir(opts.planDir)
		if err != nil {
			return err
		}
		n := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".plan") {
				n++
			}
		}
		fmt.Printf("serve: plan cache snapshotted to %s (%d file(s))\n", opts.planDir, n)
	}
	return nil
}

// trialOutcome names one online pipeline's reorder decision for the
// drain line.
func trialOutcome(tr repro.TrialExplain) string {
	switch {
	case tr.Degraded:
		return "degraded to no-reorder"
	case !tr.Decided:
		return "trial undecided"
	case tr.ReorderingWon:
		return "trial chose reordered"
	case tr.ReorderedSeconds == 0 && tr.PlainSeconds == 0:
		return "no reorder trial"
	}
	return "trial chose no-reorder"
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the traced run's spans in memory and writes them out at
// the end. Spans are recorded by the benchmark around its calls into
// each layer; the program itself is not instrumented further. All
// methods are nil-safe, so untraced runs pass a nil *tracer.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's start
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds()})
	return len(t.spans)
}

// call runs f inside a span and returns its wall time; with a nil
// tracer it only times f.
func (t *tracer) call(name string, parent int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	d, err := timeIt(f)
	t.end(id)
	return d, err
}

// importStages lifts the spans the program records into an obs.Trace
// during a cached preprocessing call under parent, renamed to the layer
// they belong to. The stages are laid out back to back from the build's
// start (see reorder's traceStages), so each lands inside the parent.
func (t *tracer) importStages(parent int, tr *obs.Trace) {
	if t == nil || tr == nil {
		return
	}
	snap := tr.Snapshot()
	layer := map[string]string{
		"stage_signatures": "lsh.signatures",
		"stage_banding":    "lsh.pairs",
		"stage_scoring":    "lsh.pairs",
		"stage_clustering": "reorder.cluster",
		"stage_tiling":     "aspt.build",
		// The cache lookup fingerprints the matrix before the build.
		"plancache_get_full": "plancache.get",
	}
	for _, s := range snap.Spans {
		name, ok := layer[s.Name]
		if !ok {
			continue // permute and heuristics are reorder's own work
		}
		start := snap.Start.Add(time.Duration(s.StartUS) * time.Microsecond)
		t.add(name, parent, start, time.Duration(s.DurUS)*time.Microsecond)
	}
}

// durations returns the wall time of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// totalPerParent sums durations(name) per parent: the time each parent
// spent in children of that name, where one layer is entered several
// times inside one parent (both LSH rounds of one build).
func (t *tracer) totalPerParent(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]time.Duration{}
	var order []int
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			if _, ok := sums[s.Parent]; !ok {
				order = append(order, s.Parent)
			}
			sums[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := make([]time.Duration, 0, len(order))
	for _, p := range order {
		out = append(out, sums[p])
	}
	return out
}

// selfTimes returns, for every closed span named name, its duration
// minus the part of its interval its child spans cover.
func (t *tracer) selfTimes(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name != name || s.End < s.Start {
			continue
		}
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered int64
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, time.Duration(s.End-s.Start-covered))
	}
	return out
}

// writeOut writes every span as one JSON line under .bench_build/trace
// and returns the file's path.
func (t *tracer) writeOut(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/reorder"
)

// runCLI builds the command once per test binary and runs it with args.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"run", "."}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("spmmrr %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIGenerateAndExec(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runCLI(t, "-gen", "scrambled", "-rows", "512", "-k", "64", "-op", "spmm", "-exec")
	for _, want := range []string{"plan:", "SpMM simulation", "speedup", "native execution"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIPlanRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	plan := filepath.Join(dir, "m.plan")
	mtx := filepath.Join(dir, "m.mtx")
	out := runCLI(t, "-gen", "scrambled", "-rows", "512", "-k", "64", "-op", "spmm",
		"-saveplan", plan, "-out", mtx)
	if !strings.Contains(out, "plan written") || !strings.Contains(out, "reordered matrix written") {
		t.Fatalf("save outputs missing:\n%s", out)
	}
	if _, err := os.Stat(plan); err != nil {
		t.Fatalf("plan file: %v", err)
	}
	out = runCLI(t, "-gen", "scrambled", "-rows", "512", "-k", "64", "-op", "spmm", "-loadplan", plan)
	if !strings.Contains(out, "plan loaded") {
		t.Fatalf("load output missing:\n%s", out)
	}
	// The written matrix round-trips through -in.
	out = runCLI(t, "-in", mtx, "-k", "64", "-op", "spmm", "-mode", "off")
	if !strings.Contains(out, "SpMM simulation") {
		t.Fatalf("mtx input failed:\n%s", out)
	}
}

func TestCLIModesAndBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runCLI(t, "-gen", "banded", "-rows", "512", "-k", "64", "-op", "sddmm",
		"-mode", "trial", "-breakdown")
	for _, want := range []string{"SDDMM simulation", "DRAM", "sparse structure"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIBatchDir(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	// Generate two small matrices via the sibling tool.
	for _, name := range []string{"a", "b"} {
		cmd := exec.Command("go", "run", "../mtxgen",
			"-family", "scrambled", "-rows", "256", "-cols", "256",
			"-out", filepath.Join(dir, name+".mtx"))
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("mtxgen: %v\n%s", err, b)
		}
	}
	out := runCLI(t, "-dir", dir, "-k", "64")
	if !strings.Contains(out, "rr/row") || !strings.Contains(out, "a ") {
		t.Fatalf("batch output wrong:\n%s", out)
	}
	// Empty directory is an error.
	if _, err := exec.Command("go", "run", ".", "-dir", t.TempDir()).CombinedOutput(); err == nil {
		t.Fatalf("empty dir accepted")
	}
}

// buildCLI compiles the binary once so serve tests can signal the real
// process (go run would intercept the signal itself).
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spmmrr")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Serving mode with a time limit: first run cold-starts and snapshots
// the plan cache on exit; the second run must warm start from it.
func TestCLIServeWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildCLI(t)
	plans := t.TempDir()
	run := func() string {
		out, err := exec.Command(bin, "-gen", "scrambled", "-rows", "512", "-k", "16",
			"-serve", "-plandir", plans, "-serve-duration", "2s").CombinedOutput()
		if err != nil {
			t.Fatalf("serve run: %v\n%s", err, out)
		}
		return string(out)
	}
	out := run()
	for _, want := range []string{"warm start from", "(0 plan snapshot(s))", "drained;", "plan cache snapshotted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cold serve output missing %q:\n%s", want, out)
		}
	}
	out = run()
	if strings.Contains(out, "(0 plan snapshot(s))") {
		t.Fatalf("second run did not warm start:\n%s", out)
	}
	if !strings.Contains(out, "drained;") {
		t.Fatalf("second run did not drain:\n%s", out)
	}
}

// Serving with -coalesce-window and -shard-nnz: the matrix shards into
// row panels, concurrent load clients coalesce into batched passes, and
// the drain line reports the coalescing counters.
func TestCLIServeCoalescedSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-gen", "scrambled", "-rows", "512", "-k", "16",
		"-serve", "-serve-duration", "2s",
		"-coalesce-window", "500us", "-shard-nnz", "4096").CombinedOutput()
	if err != nil {
		t.Fatalf("serve run: %v\n%s", err, out)
	}
	for _, want := range []string{"sharded into", "row panels", "coalescing concurrent requests", "drained;", "panels: ", " no reorder trial", "coalescing ", "leads"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("coalesced sharded serve output missing %q:\n%s", want, out)
		}
	}
}

// SIGTERM must trigger the graceful path: drain, stats line, snapshot,
// exit code 0.
func TestCLIServeGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildCLI(t)
	plans := t.TempDir()
	cmd := exec.Command(bin, "-gen", "scrambled", "-rows", "512", "-k", "16",
		"-serve", "-plandir", plans)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give it time to come up and serve a little before interrupting.
	time.Sleep(2 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve did not exit cleanly on SIGTERM: %v\n%s", err, buf.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("serve wedged after SIGTERM:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"shutdown requested", "drained;", "plan cache snapshotted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("graceful shutdown output missing %q:\n%s", want, out)
		}
	}
}

// Live mutation under load: -mutate-rate pumps value re-skins and
// structural row replacements through a real serving process; SIGTERM
// must drain gracefully, report the live-mutation ledger, and snapshot
// at least one plan whose flag bits carry a post-mutation structural
// epoch — proof the swapped-in plan, not just the boot-time one,
// survived the drain.
func TestCLIServeMutateGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildCLI(t)
	plans := t.TempDir()
	cmd := exec.Command(bin, "-gen", "scrambled", "-rows", "512", "-k", "16",
		"-serve", "-plandir", plans, "-mutate-rate", "2ms")
	buf := &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = buf, buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// Serve and mutate long enough for background rebuilds to swap
	// epoch-stamped plans in while the load clients hammer the overlay.
	time.Sleep(4 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve did not exit cleanly on SIGTERM: %v\n%s", err, buf.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("serve wedged after SIGTERM:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"mutating one live row", "shutdown requested", "drained;",
		"live mutation epoch", "plan cache snapshotted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mutating serve output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "live mutation epoch 0 ") || strings.Contains(out, "(0 mutations") {
		t.Fatalf("no mutation ever landed:\n%s", out)
	}
	entries, err := os.ReadDir(plans)
	if err != nil {
		t.Fatal(err)
	}
	epochPlans := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".plan") {
			continue
		}
		sp, err := reorder.ReadPlanFile(filepath.Join(plans, e.Name()))
		if err != nil {
			t.Fatalf("snapshot %s unreadable: %v", e.Name(), err)
		}
		if sp.Epoch > 0 {
			epochPlans++
		}
	}
	if epochPlans == 0 {
		t.Fatalf("no snapshotted plan carries a post-mutation epoch (%d plan files):\n%s", len(entries), out)
	}
}

// lockedBuffer is an io.Writer safe to read while the child process is
// still writing through the exec pipes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The observability listener of a real serving process: scrape
// /metrics (and validate the exposition format), check /healthz and
// /readyz, fetch /debug/traces, then SIGTERM and require a clean exit.
func TestCLIServeObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildCLI(t)
	cmd := exec.Command(bin, "-gen", "scrambled", "-rows", "512", "-k", "16",
		"-serve", "-obs-listen", "127.0.0.1:0", "-explain")
	buf := &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = buf, buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The listener binds port 0; parse the actual address from stdout.
	var base string
	deadline := time.Now().Add(15 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no observability address announced:\n%s", buf.String())
		}
		out := buf.String()
		if i := strings.Index(out, "observability on http://"); i >= 0 {
			rest := out[i+len("observability on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				base = strings.TrimSpace(rest[:j])
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, buf.String())
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	// Readiness flips once the background reordered build (or the
	// degraded decision) lands; 512 rows build in well under a second.
	for {
		if code, _, _ := get("/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never became ready:\n%s", buf.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if code, body, _ := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, body)
	}
	for _, fam := range []string{
		"spmmrr_admission_admitted_total",
		"spmmrr_breaker_state",
		"spmmrr_server_request_seconds",
		"spmmrr_plancache_hits_total",
		"spmmrr_kernel_seconds",
	} {
		if !strings.Contains(body, fam) {
			t.Fatalf("/metrics missing family %q:\n%s", fam, body)
		}
	}

	if code, body, _ = get("/debug/traces"); code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	} else if !json.Valid([]byte(body)) {
		t.Fatalf("/debug/traces not JSON:\n%s", body)
	}
	if code, body, _ = get("/debug/events"); code != http.StatusOK {
		t.Fatalf("/debug/events = %d", code)
	} else if err := obs.ValidateEvents([]byte(body)); err != nil {
		t.Fatalf("/debug/events ledger invalid: %v\n%s", err, body)
	}
	if code, body, _ = get("/debug/explain"); code != http.StatusOK {
		t.Fatalf("/debug/explain = %d", code)
	} else {
		var doc map[string]any
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/debug/explain not JSON: %v\n%s", err, body)
		}
		for _, key := range []string{"tenant", "mode", "plan_fingerprint", "kernel", "slo", "trial"} {
			if _, ok := doc[key]; !ok {
				t.Fatalf("/debug/explain missing %q:\n%s", key, body)
			}
		}
		// The reorder gate: 512 scrambled rows at K=16 stay far below
		// it, so nothing starts the reordered build.
		trial, _ := doc["trial"].(map[string]any)
		for _, key := range []string{"l2_bytes", "referenced_cols", "min_reorder_k"} {
			if v, _ := trial[key].(float64); v <= 0 {
				t.Fatalf("/debug/explain trial.%s = %v, want > 0:\n%s", key, trial[key], body)
			}
		}
		if k, _ := trial["min_reorder_k"].(float64); k <= 16 || trial["build"] != "none" {
			t.Fatalf("/debug/explain gate passes from K=%v with build %v; want > 16 and none:\n%s",
				trial["min_reorder_k"], trial["build"], body)
		}
	}
	if code, _, _ := get("/debug/explain?tenant=ghost"); code != http.StatusNotFound {
		t.Fatalf("/debug/explain?tenant=ghost = %d, want 404", code)
	}
	if code, _, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve did not exit cleanly on SIGTERM: %v\n%s", err, buf.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("serve wedged after SIGTERM:\n%s", buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "drained;") {
		t.Fatalf("graceful shutdown output missing:\n%s", out)
	}
	// -explain prints the diagnosis document at drain: find the JSON
	// object after the announcement line and check its identity fields.
	out := buf.String()
	i := strings.Index(out, "serve: explain ")
	if i < 0 {
		t.Fatalf("-explain printed nothing at drain:\n%s", out)
	}
	j := strings.IndexByte(out[i:], '{')
	if j < 0 {
		t.Fatalf("no JSON after explain announcement:\n%s", out[i:])
	}
	var doc map[string]any
	if err := json.NewDecoder(strings.NewReader(out[i+j:])).Decode(&doc); err != nil {
		t.Fatalf("drain explain document not JSON: %v\n%s", err, out[i:])
	}
	if doc["tenant"] != "default" || doc["plan_fingerprint"] == "" {
		t.Fatalf("drain explain document incomplete: %v", doc)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := [][]string{
		{},               // neither -in nor -gen
		{"-gen", "nope"}, // unknown family
		{"-gen", "banded", "-mode", "bogus", "-rows", "128"},
		{"-in", "/nonexistent.mtx"},
	}
	for _, args := range cases {
		if _, err := exec.Command("go", append([]string{"run", "."}, args...)...).CombinedOutput(); err == nil {
			t.Fatalf("args %v: expected failure", args)
		}
	}
}

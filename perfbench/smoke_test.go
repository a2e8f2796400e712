package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a tiny size
// and checks the output contract: exit code 0, a correct result with
// ok_ratio 1, every named metric present with its unit, and the host
// conditions in the run record.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // trace files land here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range []string{"train", "serve", "live"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.6", "--trace", trace, "--scale", "0.0625"}
				if code := runMain(args, &out); code != 0 {
					t.Fatalf("exit %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result not correct: %+v", res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
				}
				if trace == "0" && res.Metrics["ok_ratio"].Value != 1 {
					t.Errorf("ok_ratio = %v, want 1", res.Metrics["ok_ratio"].Value)
				}
				var rec struct {
					Record map[string]any `json:"record"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
					t.Fatalf("run record: %v", err)
				}
				keys := []string{"host.steal_ratio", "nproc", "gomaxprocs", "go_version", "commit", "seed", "trials"}
				if trace == "0" {
					keys = append(keys, "roof.copy_gbps")
				}
				for _, k := range keys {
					if _, ok := rec.Record[k]; !ok {
						t.Errorf("run record lacks %s", k)
					}
				}
			})
		}
	}
}

// TestMisuse checks that a bad invocation fails without a result.
func TestMisuse(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "train", "--seconds", "0"},
		{"--workload", "train", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := runMain(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

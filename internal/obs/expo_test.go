package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden locks the exact rendered output of a small
// registry — byte-for-byte, since Prometheus scrapers and the diff in
// a code review both benefit from deterministic exposition — and runs
// the grammar validator over it.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests handled.", L("op", "spmm")).Add(3)
	r.Counter("test_requests_total", "Requests handled.", L("op", "sddmm")).Add(1)
	r.Gauge("test_in_flight", "Requests in flight.").Set(2)
	r.GaugeFloat("test_ratio", "A ratio with an escaped\nhelp \\ string.").Set(0.25)
	// Binary-exact observation values, so the rendered _sum is identical
	// regardless of which shards the observations land in.
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.001, 0.01})
	h.Observe(0.00048828125) // 2^-11
	h.Observe(0.001953125)   // 2^-9
	h.Observe(5)
	r.CounterFunc("test_reads_total", "Func-backed counter.", func() int64 { return 7 },
		L("tier", `disk "primary"`))

	var b strings.Builder
	if err := WriteTo(&b, r); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP test_in_flight Requests in flight.
# TYPE test_in_flight gauge
test_in_flight 2
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 1
test_latency_seconds_bucket{le="0.01"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.00244140625
test_latency_seconds_count 3
# HELP test_ratio A ratio with an escaped\nhelp \\ string.
# TYPE test_ratio gauge
test_ratio 0.25
# HELP test_reads_total Func-backed counter.
# TYPE test_reads_total counter
test_reads_total{tier="disk \"primary\""} 7
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total{op="sddmm"} 1
test_requests_total{op="spmm"} 3
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := ValidateExposition(got); err != nil {
		t.Fatalf("golden output fails the grammar validator: %v", err)
	}
}

// TestExpositionMergesRegistries checks the /metrics gather path:
// families from several registries come out merged and sorted.
func TestExpositionMergesRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("zz_total", "Last family.").Inc()
	b.Counter("aa_total", "First family.").Inc()
	var out strings.Builder
	if err := WriteTo(&out, a, nil, b); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, "# HELP aa_total") {
		t.Fatalf("families not sorted across registries:\n%s", text)
	}
	if err := ValidateExposition(text); err != nil {
		t.Fatal(err)
	}
}

// TestValidateExpositionRejects feeds the validator documents that a
// Prometheus scraper would reject; each must fail.
func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":     "9metric 1\n",
		"bad value":           "m 1.2.3\n",
		"bad label name":      `m{9l="x"} 1` + "\n",
		"unquoted label":      `m{l=x} 1` + "\n",
		"unterminated label":  `m{l="x} 1` + "\n",
		"bad escape":          `m{l="\q"} 1` + "\n",
		"duplicate TYPE":      "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"unknown type":        "# TYPE m heatmap\nm 1\n",
		"type after sample":   "m 1\n# TYPE m counter\n",
		"interleaved family":  "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n",
		"negative counter":    "# TYPE m counter\nm -1\n",
		"no inf bucket":       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"non-cumulative":      "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"descending le":       "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"missing sum":         "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"missing count":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"bucket without le":   "# TYPE h histogram\nh_bucket{x=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"raw hist sample":     "# TYPE h histogram\nh 1\n",
		"fractional bucket":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1.5\nh_sum 1\nh_count 1\n",
		"malformed TYPE line": "# TYPE\n",
	}
	for name, doc := range cases {
		if err := ValidateExposition(doc); err == nil {
			t.Errorf("%s: validator accepted malformed document:\n%s", name, doc)
		}
	}
}

// TestValidateExpositionAccepts covers corners the validator must not
// reject: plain comments, timestamps, NaN gauges, untyped samples.
func TestValidateExpositionAccepts(t *testing.T) {
	doc := "# a free-form comment\n" +
		"# TYPE g gauge\n" +
		"g{a=\"x\",b=\"esc\\\\aped \\\"v\\\" \\n\"} NaN\n" +
		"g{a=\"y\"} -5 1700000000000\n" +
		"untyped_series 42\n"
	if err := ValidateExposition(doc); err != nil {
		t.Fatalf("validator rejected conforming document: %v", err)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m_total as gauge did not panic")
		}
	}()
	r.Gauge("m_total", "")
}

func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "", L("k", "v"))
	c2 := r.Counter("x_total", "", L("k", "v"))
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("handles disagree")
	}
	h1 := r.Histogram("h_seconds", "", []float64{1})
	h2 := r.Histogram("h_seconds", "", []float64{2})
	if h1 != h2 {
		t.Fatal("same histogram name returned distinct histograms")
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d samples, want 2", len(snap))
	}
	for _, s := range snap {
		if s.Name == "x_total" && s.Value != 1 {
			t.Fatalf("snapshot value %v, want 1", s.Value)
		}
	}

	// Concurrent registrations of one series, beside a scrape, all get
	// the one object (run under -race to see the slot filled unlocked).
	hs := make([]*Histogram, 8)
	var wg sync.WaitGroup
	for i := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs[i] = r.Histogram("c_seconds", "", []float64{1}, L("k", "v"))
		}()
	}
	r.Snapshot()
	wg.Wait()
	for _, h := range hs {
		if h != hs[0] {
			t.Fatal("concurrent registrations returned distinct histograms")
		}
	}
}

package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates the metric types a family can hold.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// child is one labeled member of a family. Exactly one of the value
// fields is set, matching the family kind (funcs are collect-at-scrape
// read-throughs over externally owned state).
type child struct {
	labels      []Label
	counter     *Counter
	gauge       *Gauge
	gaugeFloat  *GaugeFloat
	hist        *Histogram
	counterFunc func() int64
	gaugeFunc   func() float64
}

// family groups all children sharing one metric name.
type family struct {
	name     string
	help     string
	kind     Kind
	children map[string]*child // key: canonical label serialization
}

// Registry holds metric families and hands out the live metric objects
// the instrumented code updates. Registration is idempotent: asking
// for the same (name, labels) returns the same object, so exposition
// and programmatic stats read identical memory. Kind conflicts on a
// name panic — that is a wiring bug, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry used by subsystems that are not
// tied to a Server instance (kernels, preprocessing, online trials).
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.child(name, help, KindCounter, labels)
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Gauge returns the int64 gauge registered under name with the given
// labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.child(name, help, KindGauge, labels)
	if c.gauge == nil && c.gaugeFloat == nil && c.gaugeFunc == nil {
		c.gauge = &Gauge{}
	}
	if c.gauge == nil {
		panic(fmt.Sprintf("obs: gauge %q%s already registered with a different value type", name, formatLabels(labels)))
	}
	return c.gauge
}

// GaugeFloat returns the float64 gauge registered under name with the
// given labels, creating it on first use.
func (r *Registry) GaugeFloat(name, help string, labels ...Label) *GaugeFloat {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.child(name, help, KindGauge, labels)
	if c.gauge == nil && c.gaugeFloat == nil && c.gaugeFunc == nil {
		c.gaugeFloat = &GaugeFloat{}
	}
	if c.gaugeFloat == nil {
		panic(fmt.Sprintf("obs: gauge %q%s already registered with a different value type", name, formatLabels(labels)))
	}
	return c.gaugeFloat
}

// Histogram returns the histogram registered under name with the given
// labels, creating it with the given bucket bounds on first use.
// Bounds of an already registered histogram are kept (first wins).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.child(name, help, KindHistogram, labels)
	if c.hist == nil {
		c.hist = NewHistogram(bounds)
	}
	return c.hist
}

// CounterFunc registers a collect-at-scrape counter whose value is
// read from fn. The returned value must be monotone non-decreasing;
// the registry does not enforce it. Used to expose counters owned by
// mutex-guarded subsystems without double bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.child(name, help, KindCounter, labels)
	if c.counter != nil || c.counterFunc != nil {
		panic(fmt.Sprintf("obs: counter %q%s registered twice", name, formatLabels(labels)))
	}
	c.counterFunc = fn
}

// GaugeFunc registers a collect-at-scrape gauge read from fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.child(name, help, KindGauge, labels)
	if c.gauge != nil || c.gaugeFloat != nil || c.gaugeFunc != nil {
		panic(fmt.Sprintf("obs: gauge %q%s registered twice", name, formatLabels(labels)))
	}
	c.gaugeFunc = fn
}

// child locates or creates the (family, labelset) slot. The caller
// holds r.mu until it has filled the slot's value field, so concurrent
// registrations of one series agree on the object and a scrape never
// reads a half-registered slot.
func (r *Registry) child(name, help string, kind Kind, labels []Label) *child {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabelName(l.Name)
	}
	key := labelKey(labels)
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	c := f.children[key]
	if c == nil {
		ls := append([]Label(nil), labels...)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
		c = &child{labels: ls}
		f.children[key] = c
	}
	return c
}

// Sample is one exposed series in a Snapshot.
type Sample struct {
	Name   string  // family name (without _bucket/_sum/_count suffixes)
	Labels []Label // sorted by name
	Kind   Kind
	Value  float64           // counter/gauge value; histograms use Hist
	Hist   HistogramSnapshot // valid when Kind == KindHistogram
}

// Key returns the canonical "name{label="v",...}" identity of the
// sample, used by tests to compare scrapes.
func (s Sample) Key() string { return s.Name + formatLabels(s.Labels) }

// Snapshot reads every registered series once, invoking func-backed
// collectors, and returns them sorted by (name, labels). This is the
// single consistent read path programmatic stats and exposition share.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type collectChild struct {
		fam *family
		c   *child
	}
	var collect []collectChild
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			collect = append(collect, collectChild{f, f.children[k]})
		}
	}
	r.mu.Unlock()

	// Funcs run outside the registry lock: they may take subsystem
	// locks of their own, and nothing they touch is registry state.
	out := make([]Sample, 0, len(collect))
	for _, cc := range collect {
		s := Sample{Name: cc.fam.name, Labels: cc.c.labels, Kind: cc.fam.kind}
		switch {
		case cc.c.counter != nil:
			s.Value = float64(cc.c.counter.Value())
		case cc.c.counterFunc != nil:
			s.Value = float64(cc.c.counterFunc())
		case cc.c.gauge != nil:
			s.Value = float64(cc.c.gauge.Value())
		case cc.c.gaugeFloat != nil:
			s.Value = cc.c.gaugeFloat.Value()
		case cc.c.gaugeFunc != nil:
			s.Value = cc.c.gaugeFunc()
		case cc.c.hist != nil:
			s.Hist = cc.c.hist.Snapshot()
		}
		out = append(out, s)
	}
	return out
}

// help returns the registered HELP strings keyed by family name, for
// the exposition writer.
func (r *Registry) helpAndKind() map[string]struct {
	help string
	kind Kind
} {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]struct {
		help string
		kind Kind
	}, len(r.families))
	for name, f := range r.families {
		out[name] = struct {
			help string
			kind Kind
		}{f.help, f.kind}
	}
	return out
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func mustValidName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func mustValidLabelName(name string) {
	if !validLabelName(name) {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide metrics registry. Package-level metric
// variables across the pipeline register here at init time (the
// package-level New* constructors are shorthands for its methods);
// panoramad serves it at /metricsz after the server's own registry,
// and the bench harness diffs its Snapshot for the per-table effort
// appendix.
var Default = NewRegistry()

// Registry holds metric families and serialises them in Prometheus
// text exposition format. Registration takes the registry lock;
// updating a registered metric touches only atomics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one named metric family: a help string, a type, a label
// schema, and children keyed by their label values.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	mu       sync.Mutex
	children map[string]metric
}

// metric is one labelled child of a family.
type metric interface {
	sample() []float64 // counter/gauge: {value}; histogram: buckets..., sum, count
}

// gaugeFunc is a callback gauge: sampled at exposition time, so
// instantaneous values like queue depth need no write-path bookkeeping.
type gaugeFunc func() float64

func (g gaugeFunc) sample() []float64 { return []float64{g()} }

// NewRegistry returns an empty registry. Process-wide instruments live
// on Default; anything that exists several times per process (a
// service.Server) owns a registry of its own.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds (or fetches) a family, enforcing one type and label
// schema per name.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		children: make(map[string]metric)}
	r.fams[name] = f
	return f
}

// child fetches or creates the labelled child of a family.
func (f *family) child(vals []string, mk func() metric) metric {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := mk()
	f.children[key] = m
	return m
}

// Counter is a monotonically increasing int64. Add/Inc are a single
// atomic add — safe on every hot path.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay
// monotone; callers batch per-attempt totals).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) sample() []float64 { return []float64{float64(c.v.Load())} }

// CounterVec is a counter family with labels; With resolves one child,
// which callers may retain to skip the lookup on hot paths.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values.
func (v *CounterVec) With(vals ...string) *Counter {
	return v.f.child(vals, func() metric { return &Counter{} }).(*Counter)
}

// NewCounter registers a label-less counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// NewCounter registers a label-less counter on Default.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// NewCounterVec registers a labelled counter family on Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// GaugeFunc registers a label-less callback gauge: fn is called on
// every WriteProm and Snapshot, outside the registry's locks. Unlike
// the fetch-or-create constructors it panics on a duplicate name — a
// second callback could only shadow the first.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.children) > 0 {
		panic(fmt.Sprintf("obs: gauge %q registered twice", name))
	}
	f.children[""] = gaugeFunc(fn)
}

// Histogram is a fixed-bucket distribution. Observe is an atomic
// bucket increment plus a CAS-accumulated sum.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) sample() []float64 {
	out := make([]float64, 0, len(h.bounds)+3)
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		out = append(out, float64(cum))
	}
	out = append(out, h.Sum(), float64(h.count.Load()))
	return out
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	return v.f.child(vals, func() metric { return newHistogram(v.bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// NewHistogram registers a label-less histogram. Bounds are ascending
// bucket upper limits; +Inf is implicit.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	return f.child(nil, func() metric { return newHistogram(bounds) }).(*Histogram)
}

// NewHistogram registers a label-less histogram on Default.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}

// NewHistogramVec registers a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", labels), bounds: bounds}
}

// NewHistogramVec registers a labelled histogram family on Default.
func NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, bounds, labels...)
}

// TimeBuckets is the default latency bucket set (seconds): microsecond
// solves through multi-minute budget-bound pipeline stages.
var TimeBuckets = []float64{.001, .005, .01, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// IIBuckets buckets achieved initiation intervals.
var IIBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// families returns the registered families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// row is one child of a family with its label values.
type row struct {
	vals []string
	m    metric
}

// rows lists the family's children in sorted label order. Callers
// sample them after the family lock is released: a callback gauge may
// take locks of its own, or scrape the registry it is registered on.
func (f *family) rows() []row {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		var vals []string
		if len(f.labels) > 0 {
			vals = strings.Split(k, "\x00")
		}
		rows = append(rows, row{vals: vals, m: f.children[k]})
	}
	return rows
}

// WriteProm writes every family in Prometheus text exposition format
// (the /metricsz body), families and label sets in sorted order so the
// output is stable for golden tests.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.families() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, row := range f.rows() {
			if err := f.writeChild(w, row.vals, row.m); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *family) writeChild(w io.Writer, vals []string, m metric) error {
	s := m.sample()
	if h, ok := m.(*Histogram); ok {
		for i, b := range h.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
				labelString(f.labels, vals, "le", formatFloat(b)), formatFloat(s[i])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
			labelString(f.labels, vals, "le", "+Inf"), formatFloat(s[len(h.bounds)])); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			labelString(f.labels, vals, "", ""), formatFloat(s[len(s)-2])); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %s\n", f.name,
			labelString(f.labels, vals, "", ""), formatFloat(s[len(s)-1]))
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, vals, "", ""), formatFloat(s[0]))
	return err
}

// labelString renders {k="v",...}; extraKey (the histogram "le") is
// appended when non-empty. Returns "" when there are no labels at all.
func labelString(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, vals[i]) // %q escapes quotes and backslashes
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Snapshot flattens the registry into metric-name → value: counters
// and gauges by name (labelled children as name{k="v",...}),
// histograms as name_sum and name_count. The bench harness diffs two
// snapshots to render the per-table solver-effort appendix.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.families() {
		for _, row := range f.rows() {
			suffix := labelString(f.labels, row.vals, "", "")
			if h, ok := row.m.(*Histogram); ok {
				out[f.name+"_sum"+suffix] = h.Sum()
				out[f.name+"_count"+suffix] = float64(h.Count())
				continue
			}
			out[f.name+suffix] = row.m.sample()[0]
		}
	}
	return out
}

// ParseProm reads a WriteProm body back into Snapshot's shape — the
// same keys, histogram buckets dropped — so a scraper of /metricsz
// addresses series exactly as in-process code addresses a Snapshot.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	hists := make(map[string]bool)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			hists[name] = typ == "histogram"
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: malformed sample line %q", line)
		}
		key := line[:sp]
		name, _, _ := strings.Cut(key, "{")
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && hists[base] {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: sample line %q: %w", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

package loadtest

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// ReportSchemaVersion is bumped whenever the load-report format
// changes incompatibly.
const ReportSchemaVersion = 1

// ClassReport is the latency digest for one operation class
// ("single", "batch", "sse").
type ClassReport struct {
	Count  int64        `json:"count"`
	P50MS  float64      `json:"p50MS"`
	P95MS  float64      `json:"p95MS"`
	P99MS  float64      `json:"p99MS"`
	MaxMS  float64      `json:"maxMS"`
	MeanMS float64      `json:"meanMS"`
	Hist   HistSnapshot `json:"hist"`
}

// Report is the load run's JSON snapshot: environment provenance,
// throughput, per-class latency digests and the error taxonomy.
// Reports from concurrent generator processes merge exactly (histogram
// addition), with the percentiles recomputed from the merged buckets.
type Report struct {
	SchemaVersion int    `json:"schemaVersion"`
	CreatedAt     string `json:"createdAt"`
	GoVersion     string `json:"goVersion"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`

	TargetQPS   float64 `json:"targetQPS"`
	DurationSec float64 `json:"durationSec"`
	RampSec     float64 `json:"rampSec"`
	Procs       int     `json:"procs"`
	Mix         string  `json:"mix"`

	Sent        int64   `json:"sent"`
	Done        int64   `json:"done"`
	Failed      int64   `json:"failed"`
	AchievedQPS float64 `json:"achievedQPS"`

	// DistinctSpecs is how many distinct request specs this generator's
	// workload issued — the upper bound on pipeline executions a
	// deduplicating service should perform for this stream. Merge sums
	// it (distinct-seed processes issue disjoint streams); generators
	// that deliberately share one seed must bound with the max instead.
	DistinctSpecs int64 `json:"distinctSpecs,omitempty"`

	// Errors buckets failures by taxonomy key: the typed error class
	// the service returned ("budget", "overloaded", ...), "http-<code>"
	// for untyped statuses, or "transport" for connection failures.
	Errors map[string]int64 `json:"errors,omitempty"`

	Classes map[string]*ClassReport `json:"classes"`
}

// NewReport builds an empty report stamped with the environment.
func NewReport() *Report {
	return &Report{
		SchemaVersion: ReportSchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Errors:        map[string]int64{},
		Classes:       map[string]*ClassReport{},
	}
}

// finishClass recomputes a class digest from its histogram.
func finishClass(c *ClassReport, h *Hist) {
	ms := func(ns uint64) float64 { return float64(ns) / float64(time.Millisecond) }
	c.Count = int64(h.Count())
	c.P50MS = ms(h.Quantile(0.50))
	c.P95MS = ms(h.Quantile(0.95))
	c.P99MS = ms(h.Quantile(0.99))
	c.MaxMS = ms(h.Max())
	c.MeanMS = h.Mean() / float64(time.Millisecond)
	c.Hist = h.Snapshot()
}

// Merge folds other into r: counts and error buckets add, histograms
// merge bucket-wise, percentiles are recomputed, and the duration is
// the max (processes run concurrently, not back to back). Target qps
// adds, matching how -procs splits the rate.
func (r *Report) Merge(other *Report) error {
	if other.SchemaVersion != r.SchemaVersion {
		return fmt.Errorf("loadtest: merging schema %d into %d", other.SchemaVersion, r.SchemaVersion)
	}
	r.TargetQPS += other.TargetQPS
	if other.DurationSec > r.DurationSec {
		r.DurationSec = other.DurationSec
	}
	if other.RampSec > r.RampSec {
		r.RampSec = other.RampSec
	}
	r.Procs += other.Procs
	if r.Mix == "" {
		r.Mix = other.Mix
	}
	r.Sent += other.Sent
	r.Done += other.Done
	r.Failed += other.Failed
	r.DistinctSpecs += other.DistinctSpecs
	for k, v := range other.Errors {
		r.Errors[k] += v
	}
	for name, oc := range other.Classes {
		oh, err := FromSnapshot(oc.Hist)
		if err != nil {
			return err
		}
		c := r.Classes[name]
		if c == nil {
			r.Classes[name] = oc
			continue
		}
		h, err := FromSnapshot(c.Hist)
		if err != nil {
			return err
		}
		h.Merge(oh)
		finishClass(c, h)
	}
	if r.DurationSec > 0 {
		r.AchievedQPS = float64(r.Done+r.Failed) / r.DurationSec
	}
	return nil
}

// ClassNames lists the report's operation classes in sorted order.
func (r *Report) ClassNames() []string {
	names := make([]string, 0, len(r.Classes))
	for n := range r.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("loadtest: %s: %w", path, err)
	}
	if r.Errors == nil {
		r.Errors = map[string]int64{}
	}
	if r.Classes == nil {
		r.Classes = map[string]*ClassReport{}
	}
	return r, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDef is one metric row of BENCHMARK.json: name, unit, direction
// and — for end-to-end metrics only — the share of the parent's median
// by which it may worsen before a change is rejected.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// benchSpec is what the program reads of BENCHMARK.json, the one table
// of the benchmark's workloads (in the order they should be run:
// svc-mix last, its file churn perturbs whatever runs next) and
// metrics. A per-layer metric whose layer a workload never enters
// reads 0.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report is what one run of one workload produced.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Values    map[string]float64
	// Notes are diagnostics printed above the metric table: sample
	// counts, host-noise probes, and the reason for every failed op.
	Notes []string
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure; the run still prints its
// numbers, with "correct": false, and exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.notef("FAIL: "+format, args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the notes, one "name value unit" row per metric in
// defs, and — as the last line — the JSON object the driver parses.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok && d.Bound > 0 {
			return fmt.Errorf("BENCHMARK.json names the end-to-end metric %q, which this run did not measure", d.Name)
		}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// countDelta returns after-before for every obs counter that moved,
// dropping the wall-clock families (histogram sums, the portfolio's
// millisecond counter) so what is left repeats exactly.
func countDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 && !wallClockCounter(k) {
			out[k] = d
		}
	}
	return out
}

func wallClockCounter(name string) bool {
	return strings.HasPrefix(name, "panorama_stage_seconds_sum") ||
		strings.HasPrefix(name, "panorama_portfolio_member_ms_total")
}

// sumPrefix adds up every counter of a labelled family.
func sumPrefix(counts map[string]float64, family string) float64 {
	t := 0.0
	for k, v := range counts {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

// signature renders a count map canonically, for the determinism
// self-check across passes.
func signature(counts map[string]float64) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%g;", k, counts[k])
	}
	return s
}

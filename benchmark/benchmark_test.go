package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestCompileOpsAreAPureFunctionOfTheSeed(t *testing.T) {
	orders := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		a, b := compileOps(seed, compileKernels), compileOps(seed, compileKernels)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %v then %v", seed, a, b)
		}
		if len(a) != len(compileKernels) {
			t.Fatalf("seed %d: %d ops, want %d", seed, len(a), len(compileKernels))
		}
		seen := map[string]bool{}
		for _, k := range a {
			seen[k] = true
		}
		for _, k := range compileKernels {
			if !seen[k] {
				t.Fatalf("seed %d: kernel %s missing from %v", seed, k, a)
			}
		}
		orders[strings.Join(a, ",")] = true
	}
	if len(orders) < 2 {
		t.Fatalf("20 seeds gave one op order: %v", orders)
	}
}

func TestSvcOpsAreAPureFunctionOfSeedAndPass(t *testing.T) {
	const n = 1000
	a, b := svcOps(7, 0, n), svcOps(7, 0, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, pass) gave different op lists")
	}
	if reflect.DeepEqual(a, svcOps(8, 0, n)) {
		t.Fatal("a different seed gave the same op list")
	}

	// Every seed issues the same problems, cold seeds included, in
	// another order; every pass the same mix of kernels and mappers.
	shape := func(ops []svcOp, withColdSeeds bool) map[string]int {
		m := map[string]int{}
		for _, op := range ops {
			s := op.Spec
			if op.Cold && !withColdSeeds {
				s.Seed = 0
			}
			body, _ := json.Marshal(s)
			m[string(body)]++
		}
		return m
	}
	if !reflect.DeepEqual(shape(a, true), shape(svcOps(8, 0, n), true)) {
		t.Fatal("the problems of a pass depend on the seed")
	}
	if !reflect.DeepEqual(shape(a, false), shape(svcOps(8, 3, n), false)) {
		t.Fatal("the mix of kernels and mappers depends on the pass")
	}

	// Cold seeds never repeat within a run, warm-up included.
	seen := map[int64]bool{}
	cold := 0
	for pass := -1; pass < 4; pass++ {
		size := n
		if pass < 0 {
			size = n / 10
		}
		for _, op := range svcOps(7, pass, size) {
			if !op.Cold {
				continue
			}
			if seen[op.Spec.Seed] {
				t.Fatalf("cold seed %d issued twice", op.Spec.Seed)
			}
			if op.Spec.Seed < 1_000_000 {
				t.Fatalf("cold seed %d collides with the warm pool / probe range", op.Spec.Seed)
			}
			seen[op.Spec.Seed] = true
			if pass == 0 {
				cold++
			}
		}
	}
	if cold != n/svcColdShare {
		t.Fatalf("%d cold ops in a pass of %d, want %d", cold, n, n/svcColdShare)
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v", got)
	}
	if got := percentile(hundred, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestQomTallyIgnoresOrder(t *testing.T) {
	a, b := qomTally{}, qomTally{}
	pairs := [][2]int{{1, 3}, {2, 2}, {1, 2}, {2, 5}, {1, 3}}
	for _, p := range pairs {
		a.add(p[0], p[1])
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		b.add(pairs[i][0], pairs[i][1])
	}
	if a.geomean() != b.geomean() {
		t.Fatalf("geomean depends on order: %v vs %v", a.geomean(), b.geomean())
	}
	want := math.Pow(1.0/3*1*1.0/2*2.0/5*1.0/3, 1.0/5)
	if math.Abs(a.geomean()-want) > 1e-12 {
		t.Fatalf("geomean = %v, want %v", a.geomean(), want)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "b", StartNS: 30, EndNS: 60}, // overlaps a: counted once
		{ID: 3, Parent: 1, Name: "a.x", StartNS: 15, EndNS: 20},
		{ID: 4, Parent: 0, Name: "c", StartNS: 90, EndNS: 120}, // clipped to the parent
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	var nilRec *recorder
	nilRec.end(nilRec.start(-1, 0, "off")) // tracing off: no-ops
	rec := newRecorder()
	id := rec.start(-1, 0, "x")
	rec.end(id)
	if rec.total("x") < 0 || rec.total("y") != 0 {
		t.Fatalf("total: x=%v y=%v", rec.total("x"), rec.total("y"))
	}
}

func TestCountDeltaDropsWallClockFamilies(t *testing.T) {
	before := map[string]float64{"a_total": 1, `panorama_stage_seconds_sum{stage="lower"}`: 1, `v{k="x"}`: 2}
	after := map[string]float64{"a_total": 4, `panorama_stage_seconds_sum{stage="lower"}`: 2.5, `v{k="x"}`: 3, `v{k="y"}`: 5, "same": 0}
	got := countDelta(before, after)
	want := map[string]float64{"a_total": 3, `v{k="x"}`: 1, `v{k="y"}`: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("countDelta = %v, want %v", got, want)
	}
	if s := sumPrefix(got, "v"); s != 6 {
		t.Fatalf("sumPrefix = %v, want 6", s)
	}
}

func mustLoadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMeetsTheContract checks the limits the driver
// refuses a BENCHMARK.json for, and that the program knows every
// workload the file names.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	data, err := os.ReadFile("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds int               `json:"run_seconds"`
		Workloads  []json.RawMessage `json:"workloads"`
		EndToEnd   []map[string]any  `json:"end_to_end"`
		PerLayer   []map[string]any  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || !reflect.DeepEqual(b.Paths, []string{"benchmark"}) ||
		!reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) || len(data) > 64<<10 {
		t.Errorf("run_seconds %d, paths %v, command %v, %d bytes", b.RunSeconds, b.Paths, b.Command, len(data))
	}
	spec := mustLoadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(b.Workloads) {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		unique(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, compile := compileSpecs[w.Name]; !compile && w.Name != "svc-mix" {
			t.Errorf("workload %s: the program does not know it", w.Name)
		}
	}
	if len(spec.Workloads) != len(compileSpecs)+1 {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(compileSpecs)+1)
	}
	check := func(kind string, raw []map[string]any, defs []metricDef, keys int) {
		for i, d := range defs {
			unique(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || len(raw[i]) != keys {
				t.Errorf("%s %s: unit %q, better %q, %d keys (want %d)", kind, d.Name, d.Unit, d.Better, len(raw[i]), keys)
			}
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	check("end_to_end", b.EndToEnd, spec.EndToEnd, 4)
	check("per_layer", b.PerLayer, spec.PerLayer, 3)
	var setup metricDef
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want 0 < bound <= 0.25", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s: %+v, want unit s, better lower", setup)
	}
	for _, d := range spec.EndToEnd {
		if d.Name != "setup_s" && d.Bound >= setup.Bound {
			t.Errorf("%s has bound %v; setup_s (%v) must have the largest", d.Name, d.Bound, setup.Bound)
		}
	}
}

// smoke runs one workload at test size and checks the printed schema:
// one row per metric, and a last line holding exactly the four keys
// with every metric of the mode and its unit. It adds the names of the
// metrics the run computed to measured.
func smoke(t *testing.T, spec *benchSpec, workload string, trace bool, measured map[string]bool) map[string]metricValue {
	t.Helper()
	cfg := config{workload: workload, seed: 3, trace: trace, smoke: true, outDir: t.TempDir()}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name := range rep.Values {
		measured[name] = true
	}
	defs := spec.EndToEnd
	if trace {
		defs = spec.PerLayer
	}
	var out bytes.Buffer
	if err := rep.print(&out, defs); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("last line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(defs) {
		t.Fatalf("%d metrics printed, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
		if !strings.Contains(out.String(), "\n"+d.Name+" ") && !strings.HasPrefix(out.String(), d.Name+" ") {
			t.Errorf("metric %s has no printed row", d.Name)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
		}
	}
	return line.Metrics
}

// TestSmoke runs the workloads at test size, end to end and traced,
// and then checks that BENCHMARK.json and the program name the same
// metrics: the file is the only table of them, and a name only one
// side knows would silently print 0 or be dropped.
func TestSmoke(t *testing.T) {
	spec := mustLoadSpec(t)
	endToEnd, perLayer := map[string]bool{}, map[string]bool{}

	t.Run("compile", func(t *testing.T) {
		m := smoke(t, spec, "full16-panuf", false, endToEnd)
		if q := m["qom_geomean"].Value; q <= 0 || q > 1 {
			t.Fatalf("qom_geomean = %v, want in (0, 1]", q)
		}
	})
	t.Run("compile traced", func(t *testing.T) {
		guided := smoke(t, spec, "mid16-panspr", true, perLayer)
		for _, name := range []string{"spectral.sweep_s", "linalg.eigen_s", "clustermap.map_s", "ilp.solves", "spr.map_s",
			"spr.attempts", "core.clustering_s", "kernel.mmul.compile_s", "kernel.edn.ii", "mrrg.edges", "dfg.nodes", "verify.check_ms"} {
			if guided[name].Value <= 0 {
				t.Errorf("mid16-panspr traced: %s = %v, want > 0", name, guided[name].Value)
			}
		}
		if guided["core.guided_frac"].Value != 1 {
			t.Errorf("core.guided_frac = %v, want 1", guided["core.guided_frac"].Value)
		}
		// The unguided control never enters the higher-level layers.
		base := smoke(t, spec, "mid16-spr", true, perLayer)
		for _, name := range []string{"spectral.sweep_s", "clustermap.map_s", "ilp.solves", "core.clustering_s", "ultrafast.attempts"} {
			if base[name].Value != 0 {
				t.Errorf("mid16-spr traced: %s = %v, want 0", name, base[name].Value)
			}
		}
		if base["spr.map_s"].Value <= 0 {
			t.Errorf("mid16-spr traced: spr.map_s = %v, want > 0", base["spr.map_s"].Value)
		}
		if uf := smoke(t, spec, "full16-panuf", true, perLayer); uf["ultrafast.map_s"].Value <= 0 {
			t.Errorf("full16-panuf traced: ultrafast.map_s = %v, want > 0", uf["ultrafast.map_s"].Value)
		}
	})
	t.Run("service", func(t *testing.T) {
		e2e := smoke(t, spec, "svc-mix", false, endToEnd)
		if e2e["ops_per_s"].Value < 10 {
			t.Errorf("svc-mix ops_per_s = %v", e2e["ops_per_s"].Value)
		}
		layers := smoke(t, spec, "svc-mix", true, perLayer)
		if layers["service.exec_per_cold"].Value != 1 {
			t.Errorf("service.exec_per_cold = %v, want 1", layers["service.exec_per_cold"].Value)
		}
		if got := layers["service.cache_hits"].Value; got != svcSmokeOps-svcSmokeOps/svcColdShare {
			t.Errorf("service.cache_hits = %v, want %d", got, svcSmokeOps-svcSmokeOps/svcColdShare)
		}
		if layers["journal.records_per_job"].Value != 3 {
			t.Errorf("journal.records_per_job = %v, want 3 (submitted, started, completed)", layers["journal.records_per_job"].Value)
		}
		for _, name := range []string{"service.hit_p50_ms", "service.cold_p50_ms", "journal.append_sync_us", "journal.bytes_per_job",
			"service.restart_s", "cluster.ring_lookup_ns", "service.http_floor_us", "host.fsync_us"} {
			if layers[name].Value <= 0 {
				t.Errorf("svc-mix traced: %s = %v, want > 0", name, layers[name].Value)
			}
		}
	})

	for _, side := range []struct {
		kind     string
		defs     []metricDef
		measured map[string]bool
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		named := map[string]bool{}
		for _, d := range side.defs {
			named[d.Name] = true
			if !side.measured[d.Name] {
				t.Errorf("%s: BENCHMARK.json names %s, which no run measured", side.kind, d.Name)
			}
		}
		for name := range side.measured {
			if !named[name] {
				t.Errorf("%s: the program measures %s, which BENCHMARK.json does not name", side.kind, name)
			}
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := run(context.Background(), config{workload: "nope", smoke: true, outDir: t.TempDir()}); err == nil {
		t.Fatal("unknown workload: no error")
	}
}

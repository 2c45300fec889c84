package obs

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/obs/obstest"
)

func TestCounterAndVec(t *testing.T) {
	c := NewCounter("obstest_plain_total", "plain test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter at %d, want 5", c.Value())
	}

	vec := NewCounterVec("obstest_labelled_total", "labelled test counter", "site")
	vec.With("a").Add(2)
	vec.With("b").Inc()
	if vec.With("a") != vec.With("a") {
		t.Fatal("With must return the same child for the same labels")
	}
	if vec.With("a").Value() != 2 || vec.With("b").Value() != 1 {
		t.Fatal("labelled children not independent")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("obstest_hist", "test histogram", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("sum %g, want 111.5", h.Sum())
	}
	// sample() is cumulative: le=1 -> 2 (0.5 and the boundary value 1),
	// le=5 -> 3, le=10 -> 4, +Inf -> 5.
	s := h.sample()
	want := []float64{2, 3, 4, 5, 111.5, 5}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sample %v, want %v", s, want)
		}
	}
}

func TestGaugeFuncDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("obstest_gauge", "test gauge", func() float64 { return 42 })
	if v := r.Snapshot()["obstest_gauge"]; v != 42 {
		t.Fatalf("gauge reads %g, want 42", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a second callback under one name must panic")
		}
	}()
	r.GaugeFunc("obstest_gauge", "test gauge", func() float64 { return 1 })
}

// Registries are independent scopes: the same family name on two of
// them is two instruments, and neither shows up on Default.
func TestRegistriesAreScoped(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.NewCounter("obstest_scoped_total", "scoped").Add(3)
	cb := b.NewCounter("obstest_scoped_total", "scoped")
	if cb.Value() != 0 || b.Snapshot()["obstest_scoped_total"] != 0 {
		t.Fatal("a counter on one registry moved its namesake on another")
	}
	if _, ok := Default.Snapshot()["obstest_scoped_total"]; ok {
		t.Fatal("a family registered on its own registry leaked onto Default")
	}
}

// A callback gauge runs outside the registry's locks, so it may scrape
// the registry it is registered on (a server gauge reading server state
// that is itself exported) without deadlocking either exposition path.
func TestGaugeFuncMayScrapeItsRegistry(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("obstest_reentrant_total", "counter the gauge reads back").Add(7)
	var nested atomic.Bool // the scrape inside the callback samples the gauge again
	r.GaugeFunc("obstest_reentrant_gauge", "gauge that scrapes its own registry", func() float64 {
		if !nested.CompareAndSwap(false, true) {
			return 0
		}
		defer nested.Store(false)
		if err := r.WriteProm(io.Discard); err != nil {
			t.Error(err)
		}
		return r.Snapshot()["obstest_reentrant_total"]
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v := r.Snapshot()["obstest_reentrant_gauge"]; v != 7 {
			t.Errorf("gauge reads %g through Snapshot, want 7", v)
		}
		var sb strings.Builder
		if err := r.WriteProm(&sb); err != nil {
			t.Error(err)
		}
		if !strings.Contains(sb.String(), "obstest_reentrant_gauge 7\n") {
			t.Errorf("gauge missing from exposition:\n%s", sb.String())
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scraping a registry from one of its own gauge callbacks deadlocked")
	}
}

// The scrape round trip: parsing WriteProm's output yields exactly
// Snapshot — same keys, same values, histograms as _sum/_count with
// their buckets dropped.
func TestParsePromRoundTripsSnapshot(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("obstest_rt_total", "plain").Add(5)
	r.NewCounterVec("obstest_rt_labelled_total", "labelled", "site", "kind").With(`a "quoted" site`, "x y").Add(2)
	r.GaugeFunc("obstest_rt_gauge", "gauge", func() float64 { return 0.375 })
	r.NewHistogram("obstest_rt_hist", "plain histogram", IIBuckets).Observe(4)
	hv := r.NewHistogramVec("obstest_rt_seconds", "labelled histogram", TimeBuckets, "stage")
	hv.With("lower").Observe(0.2)
	hv.With("lower").Observe(7.5)
	// A counter that merely ends in _bucket is not a histogram series.
	r.NewCounter("obstest_rt_leaky_bucket", "not a histogram").Inc()

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateExposition(sb.String()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, sb.String())
	}
	got, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if len(want) != 8 {
		t.Fatalf("snapshot has %d series, want 8: %v", len(want), want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseProm(WriteProm) != Snapshot\n got  %v\n want %v", got, want)
	}
	if _, err := ParseProm(strings.NewReader("obstest_rt_total five\n")); err == nil {
		t.Fatal("a non-numeric sample value must be an error")
	}
}

func TestReregisterConflictPanics(t *testing.T) {
	NewCounter("obstest_conflict_total", "first registration")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type must panic")
		}
	}()
	NewHistogram("obstest_conflict_total", "as a histogram", TimeBuckets)
}

func TestSnapshotShapes(t *testing.T) {
	NewCounterVec("obstest_snap_total", "snapshot test", "k").With("v").Add(3)
	NewHistogram("obstest_snap_hist", "snapshot histogram", IIBuckets).Observe(4)
	snap := Default.Snapshot()
	if snap[`obstest_snap_total{k="v"}`] != 3 {
		t.Fatalf("labelled counter missing from snapshot: %v", snap)
	}
	if snap["obstest_snap_hist_sum"] != 4 || snap["obstest_snap_hist_count"] != 1 {
		t.Fatal("histogram sum/count missing from snapshot")
	}
}

func TestWritePromIsValidAndStable(t *testing.T) {
	// Exercise the counter and histogram shapes, then validate the whole
	// Default registry (this test binary's families plus the
	// package-level ones other tests registered) against the exposition
	// format. Gauges are exercised on registries of their own above.
	NewCounter("obstest_prom_total", "prom test counter").Inc()
	NewCounterVec("obstest_prom_labelled_total", "labelled", "stage").With("clustering").Inc()
	NewHistogramVec("obstest_prom_seconds", "labelled histogram", TimeBuckets, "stage").
		With("lower").Observe(0.2)

	var a, b strings.Builder
	if err := Default.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateExposition(a.String()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, a.String())
	}
	// No metric activity between two writes: output must be
	// byte-identical (sorted families, sorted label sets).
	if err := Default.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteProm output not stable across consecutive calls")
	}
	for _, want := range []string{
		"# TYPE obstest_prom_total counter",
		`obstest_prom_labelled_total{stage="clustering"} 1`,
		`obstest_prom_seconds_bucket{stage="lower",le="0.25"} 1`,
		`obstest_prom_seconds_count{stage="lower"} 1`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, a.String())
		}
	}
}

func TestMetricsConcurrent(t *testing.T) {
	c := NewCounter("obstest_conc_total", "concurrency test")
	h := NewHistogram("obstest_conc_hist", "concurrency histogram", []float64{1, 2})
	vec := NewCounterVec("obstest_conc_vec_total", "concurrency vec", "g")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := vec.With("x")
			for i := 0; i < 1000; i++ {
				c.Inc()
				child.Inc()
				h.Observe(float64(i % 3))
				if i%100 == 0 {
					var sb strings.Builder
					_ = Default.WriteProm(&sb) // concurrent exposition
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != 8000 || vec.With("x").Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: %d %d %d", c.Value(), vec.With("x").Value(), h.Count())
	}
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/obs"
	"panorama/internal/obs/obstest"
)

// metricszFamilies is the golden list of service-level metric names:
// renaming or dropping any of these breaks deployed scrape configs and
// dashboards, so a change here must be deliberate.
var metricszFamilies = []string{
	"panorama_batch_items_total",
	"panorama_batch_rejected_total",
	"panorama_batch_requests_total",
	"panorama_cluster_forward_fallback_total",
	"panorama_cluster_forwarded_total",
	"panorama_cluster_gossip_fill_total",
	"panorama_cluster_misdirected_total",
	"panorama_cluster_origin_jobs_total",
	"panorama_cluster_peers",
	"panorama_cluster_peers_down",
	"panorama_request_seconds",
	"panorama_service_cache_entries",
	"panorama_service_cache_hits_total",
	"panorama_service_cache_misses_total",
	"panorama_service_coalesced_total",
	"panorama_service_completed_total",
	"panorama_service_draining",
	"panorama_service_executed_total",
	"panorama_service_failed_total",
	"panorama_service_journal_append_errors_total",
	"panorama_service_queue_depth",
	"panorama_service_recovered_total",
	"panorama_service_rejected_total",
	"panorama_service_requeued_total",
	"panorama_service_retried_total",
	"panorama_service_running_jobs",
	"panorama_service_submitted_total",
	"panorama_sse_active_streams",
	"panorama_sse_events_sent_total",
	"panorama_sse_resumed_total",
	"panorama_sse_streams_total",
	"panorama_webhook_dropped_total",
	"panorama_webhook_failed_total",
	"panorama_webhook_retried_total",
	"panorama_webhook_sent_total",
}

func getMetricsz(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metricsz Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// typeLineFamilies lists the families an exposition body announces, in
// body order.
func typeLineFamilies(body string) []string {
	var fams []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			fams = append(fams, name)
		}
	}
	return fams
}

// maskRequestTimings blanks the values of the one family whose numbers
// are wall time — panorama_request_seconds' buckets and sums — so the
// golden pins its names, labels, bounds and exact _count lines.
func maskRequestTimings(body string) string {
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "panorama_request_seconds_bucket") || strings.HasPrefix(line, "panorama_request_seconds_sum") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " T"
		}
	}
	return strings.Join(lines, "\n")
}

// The /metricsz golden test. testdata/metricsz_server.golden is the
// per-server section of the body as the hand-written exposition this
// registry replaced rendered it after the same scenario, so any byte
// that moves — a name, a help string, a label, the order, a number's
// formatting — is a change scrapers and dashboards see (the request
// latency histogram, added since, is compared with its timings masked).
// The whole body, obs.Default's families included, must stay valid
// exposition text.
func TestMetricszGolden(t *testing.T) {
	srv, ts := runMetricsScenario(t)
	defer srv.Shutdown(context.Background())
	defer ts.Close()

	body := getMetricsz(t, ts.URL)
	if err := obstest.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	var own strings.Builder
	if err := srv.reg.WriteProm(&own); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/metricsz_server.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := maskRequestTimings(own.String()); got != string(golden) {
		t.Fatalf("per-server exposition drifted from testdata/metricsz_server.golden:\n%s", got)
	}
	if !strings.HasPrefix(body, own.String()) {
		t.Fatalf("/metricsz does not open with the server's own families:\n%s", body)
	}
	// The registry writes families in sorted order, so equality with the
	// (sorted) golden list is presence, absence and order at once.
	if got := typeLineFamilies(own.String()); !slices.Equal(got, metricszFamilies) {
		t.Fatalf("server families %v, want the golden list %v", got, metricszFamilies)
	}
}

// Stats() and the registry are two views of one instrument set: after
// the scenario every series of the server's registry equals the Stats
// field that names it, and no series is left without one.
func TestStatsMatchRegistry(t *testing.T) {
	srv, ts := runMetricsScenario(t)
	defer srv.Shutdown(context.Background())
	defer ts.Close()

	st, snap := srv.Stats(), srv.reg.Snapshot()
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	want := map[string]float64{
		`panorama_batch_items_total{disposition="coalesced"}`: float64(st.BatchItemsCoalesced),
		`panorama_batch_items_total{disposition="dup"}`:       float64(st.BatchItemsDup),
		`panorama_batch_items_total{disposition="enqueued"}`:  float64(st.BatchItemsEnqueued),
		`panorama_batch_items_total{disposition="error"}`:     float64(st.BatchItemsError),
		`panorama_batch_items_total{disposition="hit"}`:       float64(st.BatchItemsHit),
		"panorama_batch_rejected_total":                       float64(st.BatchRejected),
		"panorama_batch_requests_total":                       float64(st.BatchRequests),
		"panorama_cluster_forward_fallback_total":             float64(st.ClusterFallback),
		"panorama_cluster_forwarded_total":                    float64(st.ClusterForwarded),
		"panorama_cluster_gossip_fill_total":                  float64(st.ClusterGossipFill),
		"panorama_cluster_misdirected_total":                  float64(st.ClusterMisdirected),
		"panorama_cluster_origin_jobs_total":                  float64(st.ClusterOriginJobs),
		"panorama_cluster_peers":                              float64(st.ClusterPeers),
		"panorama_cluster_peers_down":                         float64(st.ClusterPeersDown),
		"panorama_service_cache_entries":                      float64(st.CacheEntries),
		"panorama_service_cache_hits_total":                   float64(st.CacheHits),
		"panorama_service_cache_misses_total":                 float64(st.CacheMisses),
		"panorama_service_coalesced_total":                    float64(st.Coalesced),
		"panorama_service_completed_total":                    float64(st.Completed),
		"panorama_service_draining":                           draining,
		"panorama_service_executed_total":                     float64(st.Executed),
		`panorama_service_failed_total{class="budget"}`:       float64(st.FailedBudget),
		`panorama_service_failed_total{class="cancelled"}`:    float64(st.FailedCancel),
		`panorama_service_failed_total{class="infeasible"}`:   float64(st.FailedInfeasib),
		`panorama_service_failed_total{class="other"}`:        float64(st.FailedOther),
		"panorama_service_journal_append_errors_total":        float64(st.JournalErrors),
		"panorama_service_queue_depth":                        float64(st.QueueDepth),
		"panorama_service_recovered_total":                    float64(st.Recovered),
		"panorama_service_rejected_total":                     float64(st.Rejected),
		"panorama_service_requeued_total":                     float64(st.Requeued),
		"panorama_service_retried_total":                      float64(st.Retried),
		"panorama_service_running_jobs":                       float64(st.RunningJobs),
		"panorama_service_submitted_total":                    float64(st.Submitted),
		"panorama_sse_active_streams":                         float64(st.SSEActive),
		"panorama_sse_events_sent_total":                      float64(st.SSESent),
		"panorama_sse_resumed_total":                          float64(st.SSEResumed),
		"panorama_sse_streams_total":                          float64(st.SSEStreams),
		"panorama_webhook_dropped_total":                      float64(st.WebhooksDropped),
		"panorama_webhook_failed_total":                       float64(st.WebhooksFailed),
		"panorama_webhook_retried_total":                      float64(st.WebhooksRetried),
		"panorama_webhook_sent_total":                         float64(st.WebhooksSent),
	}
	for series, v := range want {
		got, ok := snap[series]
		if !ok {
			t.Errorf("Stats() names series %s, which the registry does not have", series)
		} else if got != v {
			t.Errorf("%s: registry %g, Stats() %g", series, got, v)
		}
	}
	for series := range snap {
		// The latency histogram has no Stats() field; the golden pins its
		// counts.
		if strings.HasPrefix(series, "panorama_request_seconds_") {
			continue
		}
		if _, ok := want[series]; !ok {
			t.Errorf("registry series %s has no Stats() field checked here", series)
		}
	}
	// The scenario is only a check if it moved the numbers it compares.
	if st.CacheHits == 0 || st.Coalesced == 0 || st.Rejected == 0 || st.Retried == 0 ||
		st.FailedBudget*st.FailedCancel*st.FailedInfeasib*st.FailedOther == 0 ||
		st.BatchItemsHit*st.BatchItemsCoalesced*st.BatchItemsDup*st.BatchItemsEnqueued*st.BatchItemsError == 0 ||
		st.SSEResumed == 0 {
		t.Fatalf("scenario left a compared counter at zero: %+v", st)
	}
	if want := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses); st.CacheHitRate != want {
		t.Fatalf("CacheHitRate = %g, want %g", st.CacheHitRate, want)
	}
}

// Two servers in one process — the reason the service families are
// scoped to a registry per server and not registered on obs.Default: a
// job on A moves none of B's series, and each server's gauges read its
// own state.
func TestServersHaveSeparateMetrics(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	a, err := New(Options{Workers: 1, QueueSize: 4, Run: func(ctx context.Context, job *Job) (core.Summary, error) {
		close(started)
		<-release
		return core.Summary{Kernel: "stub", Success: true, Stages: []core.StageRecord{{Stage: "lower"}}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(context.Background())
	b, err := New(Options{Workers: 1, QueueSize: 4, Run: func(ctx context.Context, job *Job) (core.Summary, error) {
		t.Error("server B executed a job submitted to A")
		return core.Summary{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown(context.Background())
	fresh := b.reg.Snapshot()
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	code, view := postMap(t, tsA.URL, `{"kernel":"fir","scale":0.1,"seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit to A: status %d", code)
	}
	<-started
	if got := a.reg.Snapshot()["panorama_service_running_jobs"]; got != 1 {
		t.Fatalf("A's running_jobs gauge reads %g while its job runs, want 1", got)
	}
	if got := b.reg.Snapshot()["panorama_service_running_jobs"]; got != 0 {
		t.Fatalf("B's running_jobs gauge reads %g while only A runs a job, want 0", got)
	}
	close(release)
	waitForStatus(t, tsA.URL, view.ID, JobDone)

	snapA := a.reg.Snapshot()
	for series, want := range map[string]float64{
		"panorama_service_submitted_total": 1,
		"panorama_service_executed_total":  1,
		"panorama_service_completed_total": 1,
		"panorama_service_cache_entries":   1,
	} {
		if snapA[series] != want {
			t.Errorf("A: %s = %g, want %g", series, snapA[series], want)
		}
	}
	if after := b.reg.Snapshot(); !maps.Equal(after, fresh) {
		t.Fatalf("a job on A moved B's series:\n before %v\n after  %v", fresh, after)
	}
	for series, v := range fresh {
		if v != 0 {
			t.Errorf("fresh server: %s = %g, want 0", series, v)
		}
	}
}

// The inventory drift guard: every family a daemon can expose — a fresh
// server's registry plus everything the linked packages registered on
// obs.Default — has a row in OBSERVABILITY.md's tables, and every
// panorama_* row there names a registered family.
func TestObservabilityDocListsEveryFamily(t *testing.T) {
	srv, err := New(Options{Run: func(ctx context.Context, job *Job) (core.Summary, error) { return core.Summary{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, fam := range typeLineFamilies(sb.String()) {
		registered[fam] = true
	}

	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, "| `panorama_"); ok {
			name, _, _ := strings.Cut(rest, "`")
			documented["panorama_"+name] = true
		}
	}
	for fam := range registered {
		if !documented[fam] {
			t.Errorf("family %s is registered but has no row in OBSERVABILITY.md", fam)
		}
	}
	for fam := range documented {
		if !registered[fam] {
			t.Errorf("OBSERVABILITY.md documents %s, which no linked package registers", fam)
		}
	}
}

// /statsz is gone (Stats() in process, /metricsz over the wire); the
// fleet gossip surface that shares the suffix is not.
func TestStatszRemoved(t *testing.T) {
	srv, err := New(Options{Run: func(ctx context.Context, job *Job) (core.Summary, error) { return core.Summary{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for path, want := range map[string]int{"/statsz": http.StatusNotFound, "/v1/cluster/statsz": http.StatusOK} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// checkDumpWellFormed asserts the structural span invariants on a wire
// dump: non-negative durations, children inside their parent.
func checkDumpWellFormed(t *testing.T, parent *obs.SpanDump) {
	t.Helper()
	if parent.DurNS < 0 {
		t.Fatalf("span %s has negative duration", parent.Name)
	}
	for _, c := range parent.Children {
		if c.StartNS < parent.StartNS || c.StartNS+c.DurNS > parent.StartNS+parent.DurNS {
			t.Fatalf("span %s escapes parent %s", c.Name, parent.Name)
		}
		checkDumpWellFormed(t, c)
	}
}

func getTrace(t *testing.T, url, id string) (*obs.TraceDump, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var d obs.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return &d, resp.StatusCode
}

// Every job records a trace; /v1/trace/{id} serves it, rooted at the
// job id, with the pipeline's stage spans beneath.
func TestTraceEndpoint(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, code := getTrace(t, ts.URL, "job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}

	code, view := postMap(t, ts.URL, `{"kernel":"fir","scale":0.1,"arch":"8x8","mapper":"ultrafast","seed":1,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("map: status %d %+v", code, view)
	}
	d, code := getTrace(t, ts.URL, view.ID)
	if code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	if d.Name != view.ID || d.Root.Name != view.ID {
		t.Fatalf("trace rooted at %q/%q, want job id %q", d.Name, d.Root.Name, view.ID)
	}
	var lower *obs.SpanDump
	for _, c := range d.Root.Children {
		if c.Name == "lower" {
			lower = c
		}
	}
	if lower == nil {
		t.Fatalf("trace has no lower span: %+v", d.Root.Children)
	}
	checkDumpWellFormed(t, d.Root)
}

// The -race span-tree soak: 16 concurrent distinct requests through
// the real pipeline, every resulting trace well-formed and rooted at
// its own job.
func TestConcurrentRequestTracesWellFormed(t *testing.T) {
	srv, err := New(Options{Workers: 4, QueueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]string, 16)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kernel":"fir","scale":0.1,"arch":"8x8","mapper":"ultrafast","seed":%d,"wait":true}`, i+1)
			code, view := postMap(t, ts.URL, body)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := map[string]bool{}
	for i, id := range ids {
		d, code := getTrace(t, ts.URL, id)
		if code != http.StatusOK {
			t.Fatalf("trace %d: status %d", i, code)
		}
		if seen[d.Name] {
			t.Fatalf("duplicate trace root %q", d.Name)
		}
		seen[d.Name] = true
		if d.Root.Name != id {
			t.Fatalf("trace %d rooted at %q, want %q", i, d.Root.Name, id)
		}
		checkDumpWellFormed(t, d.Root)
	}
}

// The drain regression: a server shutting down with a job in flight
// must keep /metricsz serving (the daemon drains jobs before closing
// its listener) and must count the draining job's completion, so the
// final snapshot a scraper or the shutdown log sees is complete.
func TestDrainFlushesFinalMetrics(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return core.Summary{}, ctx.Err()
		}
		return core.Summary{
			Kernel:  "slow",
			Success: true,
			Stages:  []core.StageRecord{{Stage: "lower"}},
		}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// While the job drains, the metrics endpoint must still serve and
	// report the drain in progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := getMetricsz(t, ts.URL)
		if err := obstest.ValidateExposition(body); err != nil {
			t.Fatalf("invalid exposition during drain: %v", err)
		}
		if strings.Contains(body, "panorama_service_draining 1") &&
			strings.Contains(body, "panorama_service_running_jobs 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain state never visible in /metricsz:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// The draining job's terminal counters are flushed: the final
	// snapshot shows its completion.
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	final := sb.String()
	for _, want := range []string{
		"panorama_service_completed_total 1",
		"panorama_service_running_jobs 0",
		"panorama_service_draining 1",
	} {
		if !strings.Contains(final, want) {
			t.Fatalf("final snapshot missing %q:\n%s", want, final)
		}
	}
}

package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/journal"
	"panorama/internal/service"
)

// soakOptions is the shared server shape for soak runs: enough workers
// to keep up with the open-loop schedule, a queue that never rejects,
// a cache big enough that nothing is evicted mid-run (eviction would
// legitimately re-execute a fingerprint and confuse the exactly-once
// accounting), and serial pipelines so results are bit-reproducible.
func soakOptions() service.Options {
	return service.Options{
		Workers:         4,
		QueueSize:       1024,
		CacheSize:       4096,
		PipelineWorkers: 1,
	}
}

// soakWorkload is the mixed request stream: kernels only (random DFGs
// may be legitimately infeasible, and a zero-error soak must not count
// those), the fastest registered mapper, small scale.
func soakWorkload(t *testing.T, seed int64, mix Mix, warm float64) *Workload {
	t.Helper()
	wl, err := NewWorkload(WorkloadConfig{
		Seed:      seed,
		Mix:       mix,
		Scale:     0.1,
		Mapper:    "ultrafast",
		WarmRatio: warm,
		BatchSize: 4,
		DFGRatio:  -1,
	})
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	return wl
}

// mapOnce posts one item with wait=true and returns the terminal view.
func mapOnce(t *testing.T, base string, it Item) service.JobView {
	t.Helper()
	it.Wait = true
	body, err := json.Marshal(it)
	if err != nil {
		t.Fatalf("marshal item: %v", err)
	}
	resp, err := http.Post(base+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/map: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/map: status %d: %s", resp.StatusCode, data)
	}
	var jv service.JobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatalf("decode JobView: %v", err)
	}
	if jv.Result == nil {
		t.Fatalf("job %s has no result: %s", jv.ID, data)
	}
	return jv
}

// TestSoakMixedLoad drives ≥200 mixed single/batch/SSE operations
// open-loop at the real pipeline and asserts the service SLOs: zero
// failed operations, every fingerprint executed at most once despite
// warm traffic (cache hits, coalescing, batch dedup), a bounded p99,
// and summaries byte-identical to a solo run of the same specs.
func TestSoakMixedLoad(t *testing.T) {
	h, err := NewHarness(soakOptions())
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	defer h.Close(context.Background())

	wl := soakWorkload(t, 42, Mix{Single: 60, Batch: 25, SSE: 15}, 0.5)
	report, err := Run(context.Background(), RunConfig{
		BaseURL:  h.URL(),
		QPS:      250,
		Duration: 1 * time.Second,
		Ramp:     200 * time.Millisecond,
		Workload: wl,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if report.Sent < 200 {
		t.Fatalf("sent %d operations, want >= 200", report.Sent)
	}
	if report.Failed != 0 || len(report.Errors) != 0 {
		t.Fatalf("soak had failures: failed=%d errors=%v", report.Failed, report.Errors)
	}
	if report.Done != report.Sent {
		t.Fatalf("done %d != sent %d", report.Done, report.Sent)
	}
	for _, kind := range []string{OpSingle, OpBatch, OpSSE} {
		c := report.Classes[kind]
		if c == nil || c.Count == 0 {
			t.Fatalf("class %q missing from report: %+v", kind, report.Classes)
		}
		if c.P99MS < c.P50MS || c.MaxMS < c.P99MS {
			t.Errorf("class %q percentiles not ordered: p50=%g p99=%g max=%g", kind, c.P50MS, c.P99MS, c.MaxMS)
		}
		// SLO: bounded tail. The bound is loose — the point is that no
		// operation wedged against the 30s client timeout.
		if c.P99MS > 10_000 {
			t.Errorf("class %q p99 %.1fms exceeds the 10s soak bound", kind, c.P99MS)
		}
	}

	// Exactly-once: warm traffic re-issues specs, batches duplicate
	// items, SSE re-observes jobs — none of that may re-run a mapping.
	execs := h.Executions()
	issued := wl.Issued()
	if len(execs) == 0 || len(execs) > len(issued) {
		t.Fatalf("executed %d distinct fingerprints for %d issued specs", len(execs), len(issued))
	}
	for fp, n := range execs {
		if n != 1 {
			t.Errorf("fingerprint %s executed %d times, want exactly 1", fp, n)
		}
	}

	// Byte-identity: replaying sampled specs against the loaded server
	// (cache hits now) and against a fresh solo server must yield the
	// same marshalled summary — concurrency and load must not change
	// the answer, and a summary carries no wall time.
	solo, err := NewHarness(soakOptions())
	if err != nil {
		t.Fatalf("solo NewHarness: %v", err)
	}
	defer solo.Close(context.Background())
	samples := issued
	if len(samples) > 5 {
		samples = samples[:5]
	}
	for i, it := range samples {
		loaded := mapOnce(t, h.URL(), it)
		fresh := mapOnce(t, solo.URL(), it)
		got, gerr := json.Marshal(loaded.Result)
		want, werr := json.Marshal(fresh.Result)
		if gerr != nil || werr != nil {
			t.Fatalf("marshal summaries: %v, %v", gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("sample %d (%s): summary under load differs from solo run\nload: %s\nsolo: %s",
				i, loaded.Fingerprint, got, want)
		}
	}
}

// TestDrainMidLoad shuts a journal-backed server down cleanly in the
// middle of an open-loop run and restarts on the same journal and
// cache directories. Queued jobs must be requeued (not executed) by
// the draining process, replayed by the next one, and every
// fingerprint must execute at most once across both lifetimes; the
// journal must end empty — no job is lost and none runs twice.
func TestDrainMidLoad(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	opts := soakOptions()
	opts.Workers = 1 // throttle so the drain reliably catches a backlog
	opts.JournalDir = jdir
	opts.JournalNoSync = true
	opts.CacheDir = cdir
	run := service.Pipeline(opts.PipelineWorkers)
	opts.Run = func(ctx context.Context, job *service.Job) (core.Summary, error) {
		time.Sleep(10 * time.Millisecond) // hold the worker so arrivals outpace it
		return run(ctx, job)
	}

	h1, err := NewHarness(opts)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}

	wl := soakWorkload(t, 7, Mix{Single: 70, Batch: 30}, 0.3)
	runDone := make(chan *Report, 1)
	go func() {
		report, _ := Run(context.Background(), RunConfig{
			BaseURL:  h1.URL(),
			QPS:      200,
			Duration: 1200 * time.Millisecond,
			Workload: wl,
		})
		runDone <- report
	}()

	// Drain mid-run: Shutdown requeues the backlog to the journal and
	// returns once in-flight work lands. Ops still in the air hit the
	// closed listener and count as transport errors — that is the
	// client's view of a restart, and exactly what the taxonomy is for.
	time.Sleep(500 * time.Millisecond)
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := h1.Close(sctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	scancel()
	report := <-runDone
	if report == nil {
		t.Fatal("load run returned no report")
	}

	h2, err := NewHarness(opts)
	if err != nil {
		t.Fatalf("restart NewHarness: %v", err)
	}
	st := h2.Srv.Stats()
	if st.Recovered == 0 {
		t.Fatal("restart recovered no jobs; the drain left no backlog to replay")
	}
	// Let the replayed backlog finish: the queue drains and the last
	// worker goes idle.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st = h2.Srv.Stats()
		if st.QueueDepth == 0 && st.RunningJobs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered backlog never drained: queue=%d running=%d", st.QueueDepth, st.RunningJobs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := h2.Close(context.Background()); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}

	// Exactly-once across the restart: a fingerprint ran in the first
	// process, or in the second, never both (cached results satisfy the
	// replay without running).
	e1, e2 := h1.Executions(), h2.Executions()
	if len(e2) == 0 {
		t.Error("restarted server executed nothing; recovery should have re-run the requeued jobs")
	}
	for fp, n := range e1 {
		if n+e2[fp] > 1 {
			t.Errorf("fingerprint %s executed %d times in proc1 and %d in proc2", fp, n, e2[fp])
		}
	}
	for fp, n := range e2 {
		if n > 1 {
			t.Errorf("fingerprint %s executed %d times in proc2", fp, n)
		}
	}

	// No lost jobs: after both processes exited cleanly the journal
	// holds no pending work.
	jn, err := journal.Open(jdir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jn.Close()
	if pending := jn.Pending(); len(pending) != 0 {
		t.Fatalf("journal still holds %d pending job(s) after both processes drained: %+v", len(pending), pending)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
)

// The acceptance criterion end to end, against the real pipeline:
// start the service in-process, submit the same kernel twice — the
// second response must be a cache hit served in under 1% of the
// first's wall time, with Stats() reporting exactly one hit.
func TestEndToEndCacheHit(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// fir at scale 0.6 on the 8x8 preset takes a few hundred ms — slow
	// enough that a <1% cache hit is clearly distinguishable from a
	// recomputation even when the hit's loopback round trip loses a
	// scheduler slice to other test binaries, fast enough for the test
	// suite. (Scale 0.4 maps in ~70 ms, which left the hit a budget
	// under 1 ms.)
	body := `{"kernel":"fir","scale":0.6,"arch":"8x8","mapper":"pan-spr","seed":1,"wait":true}`

	t0 := time.Now()
	code, first := postMap(t, ts.URL, body)
	firstWall := time.Since(t0)
	if code != http.StatusOK {
		t.Fatalf("first submission: status %d (%+v)", code, first)
	}
	if first.Result == nil || !first.Result.Success {
		t.Fatalf("first submission did not map: %+v", first)
	}
	if first.Cache != "" {
		t.Fatalf("first submission marked %q, want a computation", first.Cache)
	}

	t1 := time.Now()
	code, second := postMap(t, ts.URL, body)
	secondWall := time.Since(t1)
	if code != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("second submission: status %d cache %q, want 200/hit", code, second.Cache)
	}
	if second.Result == nil || second.Result.II != first.Result.II || second.Result.QoM != first.Result.QoM {
		t.Fatalf("cached result differs: %+v vs %+v", second.Result, first.Result)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprint changed between identical submissions")
	}
	if firstWall < 50*time.Millisecond {
		t.Fatalf("first run finished in %v; workload too small to validate the <1%% criterion", firstWall)
	}
	if secondWall > firstWall/100 {
		t.Fatalf("cache hit took %v, more than 1%% of the first run's %v", secondWall, firstWall)
	}

	st := srv.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheHitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.CacheHitRate)
	}
	if first.RunMS <= 0 {
		t.Fatalf("executed job reports no run time: %+v", first)
	}

	// The result is addressable by fingerprint and by job id.
	resp, err := http.Get(ts.URL + "/v1/result/" + first.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/result/{fp}: status %d", resp.StatusCode)
	}
	var e Entry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Summary.II != first.Result.II {
		t.Fatalf("result endpoint served II=%d, want %d", e.Summary.II, first.Result.II)
	}
	jr, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/{id}: status %d", jr.StatusCode)
	}
}

func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	srv, err := New(Options{
		Workers:   1,
		QueueSize: 1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			select {
			case <-release:
				return core.Summary{Kernel: "fake", Success: true, MII: 1, II: 1}, nil
			case <-ctx.Done():
				return core.Summary{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func(seed int) (int, JobView, http.Header) {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json",
			jsonBody(fmt.Sprintf(`{"kernel":"fir","scale":0.25,"arch":"8x8","seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, v, resp.Header
	}

	// First job: admitted, eventually running.
	code, v1, _ := submit(1)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", code)
	}
	waitForStatus(t, ts.URL, v1.ID, JobRunning)

	// Second job (distinct fingerprint): fills the queue.
	if code, _, _ = submit(2); code != http.StatusAccepted {
		t.Fatalf("second submission: status %d, want 202", code)
	}

	// Third: rejected with 429 and a Retry-After hint.
	code, _, hdr := submit(3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded submission: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want %q", hdr.Get("Retry-After"), "1")
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("stats rejected=%d, want 1", st.Rejected)
	}

	// A rejected job leaves no trace: once capacity frees up the same
	// request is admitted cleanly.
	close(release)
	waitForStatus(t, ts.URL, v1.ID, JobDone)
	if code, _, _ = submit(3); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmission after drain: status %d", code)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	srv, err := New(Options{
		Workers:   1,
		QueueSize: 4,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			select {
			case <-release:
				return core.Summary{Kernel: "fake", Success: true, MII: 1, II: 2}, nil
			case <-ctx.Done():
				return core.Summary{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	waitForStatus(t, ts.URL, v.ID, JobRunning)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Draining: health reports it and new submissions bounce with 503.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	}, "healthz to report draining")
	if code, _ := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":9}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: status %d, want 503", code)
	}

	// Releasing the in-flight job lets the drain finish cleanly — and
	// the drained job's result still lands in the cache.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown returned %v, want nil", err)
	}
	if _, ok := srv.Cache().Get(v.Fingerprint); !ok {
		t.Fatal("drained job's result missing from the cache")
	}
	job, _ := srv.Job(v.ID)
	if job.Err() != nil {
		t.Fatalf("drained job failed: %v", job.Err())
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	srv, err := New(Options{
		Workers:   1,
		QueueSize: 4,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			<-ctx.Done() // a job that only ends by cancellation
			return core.Summary{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	waitForStatus(t, ts.URL, v.ID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil although the drain deadline fired")
	}
	job, _ := srv.Job(v.ID)
	if !failure.IsCancelled(job.Err()) {
		t.Fatalf("force-cancelled job error = %v, want a cancellation", job.Err())
	}
}

// Typed pipeline failures must surface as distinct HTTP status codes
// and distinct failure counters.
func TestTypedFailureStatusCodes(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		class  string
	}{
		{"budget", failure.Stage("clustering", fmt.Errorf("sweep: %w", failure.ErrBudget)), http.StatusGatewayTimeout, "budget"},
		{"infeasible", failure.Stage("clustermap", fmt.Errorf("no mapping: %w", failure.ErrInfeasible)), http.StatusUnprocessableEntity, "infeasible"},
		{"cancelled", failure.Stage("lower", fmt.Errorf("ctx: %w", failure.ErrCancelled)), StatusClientClosedRequest, "cancelled"},
		{"lower-failed", failure.Stage("lower", fmt.Errorf("%w: boom", failure.ErrLowerFailed)), http.StatusInternalServerError, "lower-failed"},
	}
	fail := make(map[int64]error, len(cases))
	for i, c := range cases {
		fail[int64(i+1)] = c.err
	}
	srv, err := New(Options{
		Workers:   1,
		QueueSize: 8,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return core.Summary{}, fail[job.Seed]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i, c := range cases {
		body := fmt.Sprintf(`{"kernel":"fir","scale":0.25,"arch":"8x8","seed":%d,"wait":true}`, i+1)
		code, v := postMap(t, ts.URL, body)
		if code != c.status {
			t.Errorf("%s: status %d, want %d", c.name, code, c.status)
		}
		if v.Status != JobFailed || v.Error == nil || v.Error.Class != c.class {
			t.Errorf("%s: view %+v, want failed job with class %q", c.name, v, c.class)
		}
	}
	st := srv.Stats()
	if st.FailedBudget != 1 || st.FailedInfeasib != 1 || st.FailedCancel != 1 || st.FailedOther != 1 {
		t.Fatalf("failure counters budget=%d infeasible=%d cancelled=%d other=%d, want 1 each",
			st.FailedBudget, st.FailedInfeasib, st.FailedCancel, st.FailedOther)
	}
	if st.Completed != 0 {
		t.Fatalf("completed=%d, want 0", st.Completed)
	}
}

// A request's timeoutMS may lower the operator's budget, never raise
// it: an over-limit timeoutMS resolves exactly like none at all, so a
// client cannot pin a worker past Options.Budgets.Total.
func TestTimeoutMSCannotRaiseBudget(t *testing.T) {
	const total = 2 * time.Second
	srv, err := New(Options{Workers: 1, Budgets: core.Budgets{Total: total},
		Run: func(ctx context.Context, job *Job) (core.Summary, error) { return core.Summary{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "ultrafast", Seed: 1}
	resolveWith := func(ms int64) *resolved {
		req := base
		req.TimeoutMS = ms
		return mustResolve(t, srv, req)
	}
	none := resolveWith(0)
	if none.budgets.Total != total {
		t.Fatalf("no timeoutMS: Total %v, want %v", none.budgets.Total, total)
	}
	for _, ms := range []int64{total.Milliseconds(), total.Milliseconds() + 1, 86_400_000, 1 << 62} {
		if got := resolveWith(ms); got.fingerprint != none.fingerprint || got.budgets != none.budgets {
			t.Errorf("timeoutMS %d: budgets %+v fingerprint %s, want %+v %s", ms, got.budgets, got.fingerprint, none.budgets, none.fingerprint)
		}
	}
	if got := resolveWith(500); got.budgets.Total != 500*time.Millisecond || got.fingerprint == none.fingerprint {
		t.Errorf("timeoutMS 500: budgets %+v fingerprint %s, want a lowered 500ms budget under its own key", got.budgets, got.fingerprint)
	}

	// Under an unbounded operator budget any timeoutMS lowers it, but
	// one past the largest Duration cannot wrap into some other budget.
	srv.opts.Budgets = core.Budgets{}
	for _, ms := range []int64{1 << 62, math.MaxInt64} {
		if got := resolveWith(ms); got.budgets.Total != 0 {
			t.Errorf("unbounded server, timeoutMS %d: Total %v, want 0 (unbounded)", ms, got.budgets.Total)
		}
	}
	if got := resolveWith(86_400_000); got.budgets.Total != 24*time.Hour {
		t.Errorf("unbounded server, timeoutMS 86400000: Total %v, want 24h", got.budgets.Total)
	}
}

func TestBadRequests(t *testing.T) {
	srv, err := New(Options{Workers: 1, Run: func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"no graph":       `{"arch":"8x8"}`,
		"both sources":   `{"kernel":"fir","dfg":{"name":"g","nodes":[],"edges":[]},"arch":"8x8"}`,
		"unknown kernel": `{"kernel":"nosuch"}`,
		"unknown arch":   `{"kernel":"fir","arch":"3x3"}`,
		"unknown mapper": `{"kernel":"fir","mapper":"magic"}`,
		"invalid dfg":    `{"dfg":{"name":"g","nodes":[{"id":0,"op":1}],"edges":[{"from":0,"to":5}]}}`,
		"unknown field":  `{"kernel":"fir","bogus":1}`,
		"malformed json": `{`,
	} {
		code, _ := postMap(t, ts.URL, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/result/feedface")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", resp.StatusCode)
	}
}

func jsonBody(s string) io.Reader { return bytes.NewReader([]byte(s)) }

// waitForStatus polls the job endpoint until the wanted status.
func waitForStatus(t *testing.T, url, id string, want JobStatus) {
	t.Helper()
	waitFor(t, func() bool {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return false
		}
		return v.Status == want
	}, fmt.Sprintf("job %s to reach %q", id, want))
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

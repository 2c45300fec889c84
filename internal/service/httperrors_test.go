package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
)

// errorBody is the typed error envelope every failing endpoint writes.
type errorBody struct {
	Error ErrorInfo `json:"error"`
}

// The error-path contract, one table: every way a request can fail
// maps to a distinct (status, error class) pair, rejections that
// invite a retry carry Retry-After, and enumerated-field rejections
// list the accepted values. Failure-taxonomy outcomes (infeasible,
// budget, cancelled) are driven through wait=true so the terminal
// status codes are covered end to end.
func TestHTTPErrorTable(t *testing.T) {
	// The executor fails by seed: each taxonomy bucket is a seed away.
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		switch job.Seed {
		case 422:
			return core.Summary{}, failure.Stage("clustermap", failure.ErrInfeasible)
		case 504:
			return core.Summary{}, failure.Stage("lower", failure.ErrBudget)
		case 499:
			return core.Summary{}, failure.Stage("pipeline", failure.ErrCancelled)
		}
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	srv, err := New(Options{
		Workers: 1, QueueSize: 8, Run: run,
		RetryAfter:   3 * time.Second,
		MaxBodyBytes: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// resultOf is the cache address of the fir request with this seed:
	// a failed or aborted job must leave nothing there.
	resultOf := func(seed int64) string {
		return "/v1/result/" + mustResolve(t, srv, Request{Kernel: "fir", Seed: seed}).fingerprint
	}

	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		status     int
		class      string
		wantValid  bool   // error lists accepted values
		retryAfter string // expected Retry-After header ("" = none)
		// batchItem also sends body as the item of a one-item batch,
		// whose item must carry the same class.
		batchItem bool
	}{
		{
			name: "unknown mapper", method: "POST", path: "/v1/map",
			body:   `{"kernel":"fir","mapper":"no-such-mapper"}`,
			status: http.StatusBadRequest, class: "unknown-mapper", wantValid: true,
		},
		{
			name: "malformed JSON", method: "POST", path: "/v1/map",
			body:   `{"kernel":`,
			status: http.StatusBadRequest, class: "bad-request",
		},
		{
			name: "unknown field", method: "POST", path: "/v1/map",
			body:   `{"kernel":"fir","bogus":1}`,
			status: http.StatusBadRequest, class: "bad-request",
		},
		{
			name: "kernel and dfg together", method: "POST", path: "/v1/map",
			body:   `{"kernel":"fir","dfg":{"name":"x"}}`,
			status: http.StatusBadRequest, class: "bad-request",
		},
		{
			name: "neither kernel nor dfg", method: "POST", path: "/v1/map",
			body:   `{"seed":1}`,
			status: http.StatusBadRequest, class: "bad-request",
		},
		{
			name: "unknown arch preset", method: "POST", path: "/v1/map",
			body:   `{"kernel":"fir","arch":"3x3"}`,
			status: http.StatusBadRequest, class: "bad-request",
		},
		{
			name: "scale above the limit", method: "POST", path: "/v1/map",
			body:   `{"kernel":"conv2d","scale":1e5}`,
			status: http.StatusBadRequest, class: "bad-request", batchItem: true,
		},
		{
			name: "oversized body", method: "POST", path: "/v1/map",
			body:   `{"pad":"` + strings.Repeat("x", 1<<17) + `"}`,
			status: http.StatusRequestEntityTooLarge, class: "oversized-body",
		},
		{
			name: "oversized batch body", method: "POST", path: "/v1/batch",
			body:   `{"pad":"` + strings.Repeat("x", 1<<17) + `"}`,
			status: http.StatusRequestEntityTooLarge, class: "oversized-body",
		},
		{
			name: "batch over item limit", method: "POST", path: "/v1/batch",
			body:   `{"items":[` + strings.Repeat(`{"kernel":"fir"},`, 64) + `{"kernel":"fir"}]}`,
			status: http.StatusBadRequest, class: "oversized-batch",
		},
		{
			name: "infeasible", method: "POST", path: "/v1/map",
			body:   `{"kernel":"fir","seed":422,"wait":true}`,
			status: http.StatusUnprocessableEntity, class: "infeasible",
		},
		{
			name: "budget exhausted", method: "POST", path: "/v1/map",
			body:   `{"kernel":"fir","seed":504,"wait":true}`,
			status: http.StatusGatewayTimeout, class: "budget",
		},
		{
			name: "cancelled", method: "POST", path: "/v1/map",
			body:   `{"kernel":"fir","seed":499,"wait":true}`,
			status: StatusClientClosedRequest, class: "cancelled",
		},
		{
			name: "infeasible not cached", method: "GET", path: resultOf(422),
			status: http.StatusNotFound, class: "not-found",
		},
		{
			name: "budget abort not cached", method: "GET", path: resultOf(504),
			status: http.StatusNotFound, class: "not-found",
		},
		{
			name: "cancel not cached", method: "GET", path: resultOf(499),
			status: http.StatusNotFound, class: "not-found",
		},
		{
			name: "unknown job", method: "GET", path: "/v1/jobs/job-999999",
			status: http.StatusNotFound, class: "not-found",
		},
		{
			name: "unknown result", method: "GET", path: "/v1/result/deadbeef",
			status: http.StatusNotFound, class: "not-found",
		},
		{
			name: "unknown trace", method: "GET", path: "/v1/trace/job-999999",
			status: http.StatusNotFound, class: "not-found",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.retryAfter {
				t.Fatalf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			// Terminal taxonomy failures answer with a JobView whose
			// Error field carries the class; admission and validation
			// failures answer with the bare error envelope.
			switch tc.status {
			case http.StatusUnprocessableEntity, http.StatusGatewayTimeout, StatusClientClosedRequest:
				var v JobView
				if err := json.Unmarshal(data, &v); err != nil {
					t.Fatalf("job view: %v\n%s", err, data)
				}
				if v.Error == nil || v.Error.Class != tc.class {
					t.Fatalf("job error %+v, want class %q", v.Error, tc.class)
				}
				if v.Error.Stage == "" {
					t.Fatalf("taxonomy error lost its stage: %+v", v.Error)
				}
			default:
				var e errorBody
				if err := json.Unmarshal(data, &e); err != nil {
					t.Fatalf("error body: %v\n%s", err, data)
				}
				if e.Error.Class != tc.class {
					t.Fatalf("class %q, want %q: %s", e.Error.Class, tc.class, data)
				}
				if e.Error.Message == "" {
					t.Fatalf("empty error message: %s", data)
				}
				if tc.wantValid && len(e.Error.Valid) == 0 {
					t.Fatalf("error lists no accepted values: %s", data)
				}
			}
			if tc.batchItem {
				resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"items":[`+tc.body+`]}`))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var v BatchView
				if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
					t.Fatalf("batch view: %v", err)
				}
				if len(v.Items) != 1 || v.Items[0].Error == nil || v.Items[0].Error.Class != tc.class {
					t.Fatalf("batch item %+v, want class %q", v.Items, tc.class)
				}
			}
		})
	}
}

// The overload paths need a wedged server: a full queue answers 429
// with Retry-After on both the single and the batch surface.
func TestHTTPQueueFullPaths(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 1, Run: run, RetryAfter: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		srv.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := postMap(t, ts.URL, `{"kernel":"fir","seed":1}`); code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code)
	}
	<-started
	if code, _ := postMap(t, ts.URL, `{"kernel":"fir","seed":2}`); code != http.StatusAccepted {
		t.Fatalf("job 2: status %d", code)
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/map", `{"kernel":"fir","seed":3}`},
		{"/v1/batch", `{"items":[{"kernel":"fir","seed":3}]}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429: %s", tc.path, resp.StatusCode, data)
		}
		if got := resp.Header.Get("Retry-After"); got != "3" {
			t.Fatalf("%s: Retry-After %q, want \"3\" (fallback, no drain samples)", tc.path, got)
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if e.Error.Class != "overloaded" {
			t.Fatalf("%s: class %q, want overloaded", tc.path, e.Error.Class)
		}
	}
}

// A draining server answers both surfaces 503 with class "draining"
// and no Retry-After.
func TestHTTPDrainPath(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueSize: 8, Run: func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "stub", Success: true}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/map", "/v1/batch"} {
		body := `{"kernel":"fir","seed":78}`
		if path == "/v1/batch" {
			body = `{"items":[` + body + `]}`
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s draining: status %d: %s", path, resp.StatusCode, data)
		}
		if got := resp.Header.Get("Retry-After"); got != "" {
			t.Fatalf("%s draining: Retry-After %q, want none", path, got)
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if e.Error.Class != "draining" {
			t.Fatalf("%s draining: class %q", path, e.Error.Class)
		}
	}
}

// Failed jobs never close admission: after eight requests that fail —
// on the real pipeline by a 1 ms budget, on a stub as infeasible — the
// next ordinary request still runs and answers 200. Such failures are
// the client's doing and say nothing about the server's health.
func TestFailedJobsNeverCloseAdmission(t *testing.T) {
	const ordinary = `{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"ultrafast","seed":1,"wait":true}`
	infeasible := func(ctx context.Context, job *Job) (core.Summary, error) {
		if job.Mapper == "ultrafast" {
			return core.Summary{Kernel: "stub", Success: true}, nil
		}
		return core.Summary{}, fmt.Errorf("stub: %w", failure.ErrInfeasible)
	}
	for _, tc := range []struct {
		name string
		run  RunFunc
	}{{"timed out", nil}, {"infeasible", infeasible}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Options{Run: tc.run})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for seed := 1; seed <= 8; seed++ {
				body := fmt.Sprintf(`{"kernel":"conv2d","scale":0.25,"arch":"8x8","seed":%d,"timeoutMS":1,"wait":true}`, seed)
				if code, v := postMap(t, ts.URL, body); v.Status != JobFailed {
					t.Fatalf("seed %d: status %d (%s), want a failed job", seed, code, v.Status)
				}
			}
			if code, v := postMap(t, ts.URL, ordinary); code != http.StatusOK {
				t.Fatalf("ordinary request after eight failures: status %d (%s), want 200", code, v.Status)
			}
		})
	}
}

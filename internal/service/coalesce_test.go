package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/core"
)

// postMap POSTs a /v1/map request and decodes the JobView response.
func postMap(t *testing.T, url string, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(url+"/v1/map", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/map: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
	return resp.StatusCode, v
}

// The satellite requirement: N racing clients submitting the identical
// request share exactly one pipeline execution and all receive the
// same result. The executor blocks until every client has been
// admitted, so none of them can be served from the cache — each must
// either start the computation or coalesce onto it.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	const clients = 16
	var execs atomic.Int64
	release := make(chan struct{})
	srv, err := New(Options{
		Workers:   4,
		QueueSize: clients,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			execs.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return core.Summary{}, ctx.Err()
			}
			return core.Summary{Kernel: "fir", Success: true, MII: 2, II: 3, QoM: 0.67}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":1,"wait":true}`
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}

	// Admit everyone before releasing the single computation.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Submitted < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients admitted", srv.Stats().Submitted, clients)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("pipeline executed %d times for %d identical submissions, want exactly 1", got, clients)
	}
	var coalesced int
	views := make([]JobView, clients)
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if err := json.Unmarshal(bodies[i], &views[i]); err != nil {
			t.Fatalf("client %d: decoding %q: %v", i, bodies[i], err)
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %+v", i, codes[i], views[i])
		}
		if views[i].Result == nil || !views[i].Result.Success {
			t.Fatalf("client %d: missing result: %+v", i, views[i])
		}
		a, b := *views[i].Result, *views[0].Result
		if a.Kernel != b.Kernel || a.Success != b.Success || a.MII != b.MII || a.II != b.II || a.QoM != b.QoM {
			t.Fatalf("client %d received a different result:\n %+v\n %+v", i, a, b)
		}
		if views[i].Fingerprint != views[0].Fingerprint {
			t.Fatalf("client %d: fingerprint mismatch", i)
		}
		if views[i].Cache == "coalesced" {
			coalesced++
		}
	}
	if coalesced != clients-1 {
		t.Fatalf("%d clients coalesced, want %d", coalesced, clients-1)
	}

	st := srv.Stats()
	if st.CacheMisses != 1 || st.Coalesced != clients-1 || st.CacheHits != 0 {
		t.Fatalf("stats misses=%d coalesced=%d hits=%d, want 1/%d/0",
			st.CacheMisses, st.Coalesced, st.CacheHits, clients-1)
	}

	// Once published, the same submission is a pure cache hit.
	code, v := postMap(t, ts.URL, body)
	if code != http.StatusOK || v.Cache != "hit" {
		t.Fatalf("post-completion submission: code=%d cache=%q, want 200/hit", code, v.Cache)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("cache hit re-executed the pipeline (%d executions)", got)
	}
}

package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"panorama/internal/core"
)

func TestBreakerStates(t *testing.T) {
	var nilB *breaker
	if nilB.state() != breakerOK {
		t.Fatal("nil breaker must report ok")
	}
	nilB.record(true) // must not panic
	if nilB.failureRate() != 0 {
		t.Fatal("nil breaker must report rate 0")
	}

	b := newBreaker(4, 0.8)
	if b.state() != breakerOK {
		t.Fatal("empty breaker must report ok")
	}
	b.record(true)
	if b.state() != breakerOK {
		t.Fatal("a single early failure must not trip the breaker (under half a window)")
	}
	b.record(true)
	if b.state() != breakerShed {
		t.Fatalf("2/2 failures: state %v, want shed", b.state())
	}
	b.record(false)
	b.record(false)
	if got := b.state(); got != breakerOK {
		t.Fatalf("2/4 failures, under the shed threshold: state %v rate %v, want ok", got, b.failureRate())
	}
	// Successes push the failures out of the ring: full recovery.
	for i := 0; i < 4; i++ {
		b.record(false)
	}
	if b.state() != breakerOK || b.failureRate() != 0 {
		t.Fatalf("after 4 successes: state %v rate %v, want ok/0", b.state(), b.failureRate())
	}
	// The gauge values alerts are written against: 0 ok, 2 shedding.
	if breakerOK != 0 || breakerShed != 2 || breakerOK.String() != "ok" || breakerShed.String() != "shed" {
		t.Fatalf("states %d=%s %d=%s, want 0=ok 2=shed", breakerOK, breakerOK, breakerShed, breakerShed)
	}
}

// Past the shed threshold the service refuses new computations with
// 503 + Retry-After — but keeps serving cache hits.
func TestBreakerShedsLoad(t *testing.T) {
	srv, err := New(Options{
		Workers:       1,
		MaxAttempts:   1,
		RetryBase:     -1,
		BreakerWindow: 4, // judged after 2 samples; 2 failures → rate 1.0 → shed
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			if job.Seed < 100 {
				return core.Summary{}, errors.New("backend down")
			}
			return core.Summary{Kernel: "ok", Success: true, MII: 1, II: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for seed := 1; seed <= 2; seed++ {
		body := `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":` + string(rune('0'+seed)) + `,"wait":true}`
		if code, _ := postMap(t, ts.URL, body); code != http.StatusInternalServerError {
			t.Fatalf("seed %d: status %d, want 500", seed, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		jsonBody(`{"kernel":"fir","scale":0.25,"arch":"8x8","seed":100,"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission past shed threshold: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	st := srv.Stats()
	if st.Shed != 1 || st.BreakerState != "shed" {
		t.Fatalf("shed=%d breakerState=%q, want 1/shed", st.Shed, st.BreakerState)
	}

	// A result already in the cache still serves while shedding.
	srv.Cache().Put(Entry{Fingerprint: "deadbeef", Summary: core.Summary{Kernel: "cached", II: 1}})
	rr, err := http.Get(ts.URL + "/v1/result/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("cached result while shedding: status %d, want 200", rr.StatusCode)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"panorama/internal/core"
)

func postBatch(t *testing.T, url string, body string) (int, http.Header, BatchView) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v BatchView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("batch response: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, resp.Header, v
}

// countingRun is a stub executor that tallies executions per
// fingerprint, so tests can assert exactly-once under dedup.
func countingRun() (RunFunc, func(fp string) int) {
	var mu sync.Mutex
	counts := map[string]int{}
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		mu.Lock()
		counts[job.Fingerprint]++
		mu.Unlock()
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	return run, func(fp string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[fp]
	}
}

// One POST /v1/batch: per-item cache hits, within-batch dedup, fresh
// enqueues and per-item typed errors all coexist in a single
// partial-success response, and a deduped fingerprint executes once.
func TestBatchSubmit(t *testing.T) {
	run, countOf := countingRun()
	srv, err := New(Options{Workers: 2, QueueSize: 16, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the cache with seed 9 so the batch sees one hit.
	if code, _ := postMap(t, ts.URL, `{"kernel":"fir","seed":9,"wait":true}`); code != http.StatusOK {
		t.Fatalf("warmup: status %d", code)
	}

	code, _, v := postBatch(t, ts.URL, `{
		"mapper": "pan-spr", "wait": true,
		"items": [
			{"kernel": "fir", "seed": 1},
			{"kernel": "fir", "seed": 1},
			{"kernel": "fir", "seed": 2},
			{"kernel": "fir", "seed": 9},
			{"kernel": "fir", "seed": 3, "mapper": "no-such-mapper"},
			{"kernel": "no-such-kernel", "seed": 4}
		]
	}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d, want 200 (wait=true, all terminal): %+v", code, v)
	}
	if !v.Done || v.ID == "" {
		t.Fatalf("batch not done: %+v", v)
	}
	if v.Hits != 1 || v.Dups != 1 || v.Enqueued != 2 || v.Errors != 2 || v.Coalesced != 0 {
		t.Fatalf("batch tallies: %+v", v)
	}
	if len(v.Items) != 6 {
		t.Fatalf("batch has %d items, want 6", len(v.Items))
	}
	// Items 0 and 1 share a fingerprint; item 1 is the dup and both
	// resolve to the same done job.
	if v.Items[0].Fingerprint != v.Items[1].Fingerprint {
		t.Fatalf("items 0/1 fingerprints differ: %+v", v.Items[:2])
	}
	if v.Items[1].Cache != "dup" || v.Items[1].JobID != v.Items[0].JobID {
		t.Fatalf("item 1 not deduped onto item 0: %+v", v.Items[1])
	}
	if v.Items[0].Status != JobDone || v.Items[0].Result == nil {
		t.Fatalf("item 0 not done: %+v", v.Items[0])
	}
	if v.Items[3].Cache != "hit" || v.Items[3].Result == nil {
		t.Fatalf("item 3 not a cache hit: %+v", v.Items[3])
	}
	if v.Items[4].Error == nil || v.Items[4].Error.Class != "unknown-mapper" || len(v.Items[4].Error.Valid) == 0 {
		t.Fatalf("item 4 error: %+v", v.Items[4].Error)
	}
	if v.Items[5].Error == nil || v.Items[5].Error.Class != "bad-request" {
		t.Fatalf("item 5 error: %+v", v.Items[5].Error)
	}
	if n := countOf(v.Items[0].Fingerprint); n != 1 {
		t.Fatalf("deduped fingerprint executed %d times, want 1", n)
	}

	// GET /v1/batch/{id} replays the same view.
	resp, err := http.Get(ts.URL + "/v1/batch/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got BatchView
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.ID != v.ID || got.Hits != v.Hits || len(got.Items) != len(v.Items) {
		t.Fatalf("GET batch disagrees: %+v vs %+v", got, v)
	}

	// The admission span is addressable as a trace.
	if d, code := getTrace(t, ts.URL, v.ID); code != http.StatusOK || d.Name != "batch" {
		t.Fatalf("batch trace: status %d dump %+v", code, d)
	}

	st := srv.Stats()
	if st.BatchRequests != 1 || st.BatchItemsHit != 1 || st.BatchItemsDup != 1 ||
		st.BatchItemsEnqueued != 2 || st.BatchItemsError != 2 {
		t.Fatalf("batch stats: %+v", st)
	}

	if code, _, _ := postBatch(t, ts.URL, `{"items":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	resp, err = http.Get(ts.URL + "/v1/batch/batch-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch: status %d, want 404", resp.StatusCode)
	}
}

// Batch admission is atomic: when the queue cannot take every new job
// the batch needs, the whole batch is rejected with 429 + Retry-After
// and no item is admitted — no partial fan-out, no journal record, no
// job ID consumed.
func TestBatchAtomicAdmission(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return core.Summary{Kernel: "stub", Success: true}, nil
	}
	jdir := filepath.Join(t.TempDir(), "journal")
	srv, err := New(Options{Workers: 1, QueueSize: 1, Run: run,
		JournalDir: jdir, JournalNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		srv.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the worker, then the single queue slot.
	if code, _ := postMap(t, ts.URL, `{"kernel":"fir","seed":1}`); code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code)
	}
	<-started
	if code, _ := postMap(t, ts.URL, `{"kernel":"fir","seed":2}`); code != http.StatusAccepted {
		t.Fatalf("job 2: status %d", code)
	}

	before := srv.Stats()
	kinds0, bytes0 := journalKinds(), dirBytes(t, jdir)
	code, hdr, _ := postBatch(t, ts.URL, `{"items":[{"kernel":"fir","seed":3},{"kernel":"fir","seed":4}]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch over capacity: status %d, want 429", code)
	}
	// No completions observed yet → the 1 s fallback.
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	after := srv.Stats()
	if after.BatchRejected != before.BatchRejected+1 {
		t.Fatalf("batchRejected %d → %d, want +1", before.BatchRejected, after.BatchRejected)
	}
	// Atomicity: neither seed-3 nor seed-4 left any trace.
	if after.BatchItemsEnqueued != 0 || after.Submitted != before.Submitted {
		t.Fatalf("partial admission leaked: %+v", after)
	}
	if kinds, grew := kindsSince(kinds0), dirBytes(t, jdir)-bytes0; len(kinds) != 0 || grew != 0 {
		t.Fatalf("rejected batch journaled %v (%d bytes)", kinds, grew)
	}
	srv.mu.Lock()
	ids := srv.nextID
	srv.mu.Unlock()
	if ids != 2 {
		t.Fatalf("rejected batch consumed job IDs: next id after %d, want 2", ids)
	}

	// A batch that needs only one new job still fits (seed 3 alone
	// would also not fit — the queue is full — so coalesce onto seed 2).
	code, _, v := postBatch(t, ts.URL, `{"items":[{"kernel":"fir","seed":2}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("coalescing batch: status %d, want 202", code)
	}
	if v.Coalesced != 1 || v.Items[0].Cache != "coalesced" {
		t.Fatalf("batch item did not coalesce: %+v", v)
	}
}

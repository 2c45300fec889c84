package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/obs"
)

// journalKinds snapshots the process-wide journal append counters by
// record kind. The service tests run one at a time, so a delta between
// two snapshots is what the server under test appended in between.
func journalKinds() map[string]float64 {
	out := map[string]float64{}
	for k, v := range obs.Default.Snapshot() {
		if strings.HasPrefix(k, "panorama_journal_records_total") {
			out[k] = v
		}
	}
	return out
}

// kindsSince names the record kinds appended since before, with counts.
func kindsSince(before map[string]float64) map[string]int {
	out := map[string]int{}
	for k, v := range journalKinds() {
		if d := int(v - before[k]); d != 0 {
			kind := strings.TrimSuffix(strings.TrimPrefix(k, `panorama_journal_records_total{kind="`), `"}`)
			out[kind] = d
		}
	}
	return out
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// admissionResult is everything one submission shows the outside: the
// HTTP answer, the admission counters it moved, and the journal records
// it appended.
type admissionResult struct {
	Status      int
	RetryAfter  bool
	ErrClass    string
	Cache       string
	JobStatus   JobStatus
	HasJob      bool
	Fingerprint string

	Submitted, Rejected, Hits, Misses, Coalesced int64

	Kinds map[string]int
	// IDs is how many job IDs the submission consumed.
	IDs int
}

// Every admission scenario gives the same answer, moves the same
// counters and journals the same records whether it arrives as
// POST /v1/map or as a one-item POST /v1/batch — the two surfaces are
// one admission path. (At the parent commit the queue-full row differs:
// /v1/map journaled Submitted + Cancelled and burned a job ID where the
// batch wrote nothing.)
func TestAdmissionSurfacesAgree(t *testing.T) {
	const (
		probe   = `{"kernel":"fir","scale":0.25,"seed":7}`
		blocker = `{"kernel":"fir","scale":0.25,"seed":100}`
		filler  = `{"kernel":"fir","scale":0.25,"seed":101}`
		peer    = "http://peer-a:1"
	)
	probeReq := Request{Kernel: "fir", Scale: 0.25, Seed: 7}
	stub := core.Summary{Kernel: "stub", Success: true}

	type env struct {
		srv     *Server
		url     string
		started chan struct{}
		probeFP string // fingerprint the probe resolves to
	}
	// occupy wedges the single worker on the blocker job.
	occupy := func(t *testing.T, e *env) {
		if code, _ := postMap(t, e.url, blocker); code != http.StatusAccepted {
			t.Fatalf("blocker: status %d", code)
		}
		<-e.started
	}
	drain := func(t *testing.T, e *env) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		body    string // the submission under test (default: probe)
		header  string // X-Panorama-Forwarded-From on the submission
		mapOnly bool   // the forwarding protocol only speaks /v1/map
		setup   func(t *testing.T, e *env)
		want    admissionResult
	}{
		{
			name: "hit",
			setup: func(t *testing.T, e *env) {
				occupy(t, e)
				e.srv.cache.Put(Entry{Fingerprint: e.probeFP, Summary: stub})
			},
			want: admissionResult{Status: 200, Cache: "hit", JobStatus: JobDone, Submitted: 1, Hits: 1},
		},
		{
			name:  "miss",
			setup: occupy,
			want: admissionResult{Status: 202, JobStatus: JobQueued, HasJob: true, Submitted: 1, Misses: 1,
				Kinds: map[string]int{"submitted": 1}, IDs: 1},
		},
		{
			name:  "coalesce onto in-flight",
			body:  blocker,
			setup: occupy,
			want:  admissionResult{Status: 202, Cache: "coalesced", JobStatus: JobRunning, HasJob: true, Submitted: 1, Coalesced: 1},
		},
		{
			name:  "draining",
			setup: drain,
			want:  admissionResult{Status: 503, ErrClass: "draining"},
		},
		{
			name: "hit while draining",
			setup: func(t *testing.T, e *env) {
				e.srv.cache.Put(Entry{Fingerprint: e.probeFP, Summary: stub})
				drain(t, e)
			},
			want: admissionResult{Status: 200, Cache: "hit", JobStatus: JobDone, Submitted: 1, Hits: 1},
		},
		{
			name: "queue full",
			setup: func(t *testing.T, e *env) {
				occupy(t, e)
				if code, _ := postMap(t, e.url, filler); code != http.StatusAccepted {
					t.Fatalf("filler: status %d", code)
				}
			},
			// A rejected submission never existed: no record, no job ID.
			want: admissionResult{Status: 429, RetryAfter: true, ErrClass: "overloaded", Rejected: 1},
		},
		{
			name:    "forwarded-in with origin",
			header:  peer,
			mapOnly: true,
			setup:   occupy,
			want: admissionResult{Status: 202, JobStatus: JobQueued, HasJob: true, Submitted: 1, Misses: 1,
				Kinds: map[string]int{"submitted": 1}, IDs: 1},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := map[string]admissionResult{}
			for _, surface := range []string{"/v1/map", "/v1/batch"} {
				if tc.mapOnly && surface == "/v1/batch" {
					continue
				}
				release := make(chan struct{})
				e := &env{started: make(chan struct{}, 4)}
				jdir := filepath.Join(t.TempDir(), "journal")
				srv, err := New(Options{
					Workers: 1, QueueSize: 1,
					JournalDir: jdir, JournalNoSync: true,
					Run: func(ctx context.Context, job *Job) (core.Summary, error) {
						e.started <- struct{}{}
						select {
						case <-release:
						case <-ctx.Done():
						}
						return stub, nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())
				e.srv, e.url = srv, ts.URL
				res, err := srv.resolve(&probeReq)
				if err != nil {
					t.Fatal(err)
				}
				e.probeFP = res.fingerprint
				tc.setup(t, e)

				body := tc.body
				if body == "" {
					body = probe
				}
				if surface == "/v1/batch" {
					body = `{"items":[` + body + `]}`
				}
				st0, kinds0, bytes0 := srv.Stats(), journalKinds(), dirBytes(t, jdir)
				srv.mu.Lock()
				ids0 := srv.nextID
				srv.mu.Unlock()

				req, err := http.NewRequest(http.MethodPost, ts.URL+surface, bytes.NewReader([]byte(body)))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				if tc.header != "" {
					req.Header.Set(cluster.HeaderForwardedFrom, tc.header)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()

				st1 := srv.Stats()
				srv.mu.Lock()
				ids1 := srv.nextID
				srv.mu.Unlock()
				got := admissionResult{
					Status:     resp.StatusCode,
					RetryAfter: resp.Header.Get("Retry-After") != "",
					Submitted:  st1.Submitted - st0.Submitted,
					Rejected:   st1.Rejected - st0.Rejected,
					Hits:       st1.CacheHits - st0.CacheHits,
					Misses:     st1.CacheMisses - st0.CacheMisses,
					Coalesced:  st1.Coalesced - st0.Coalesced,
					Kinds:      kindsSince(kinds0),
					IDs:        ids1 - ids0,
				}
				if len(got.Kinds) == 0 {
					got.Kinds = nil
					if grew := dirBytes(t, jdir) - bytes0; grew != 0 {
						t.Errorf("%s: no record counted, yet the journal grew %d bytes", surface, grew)
					}
				}
				jobID := ""
				switch {
				case resp.StatusCode >= 400:
					var eb errorBody
					if err := json.Unmarshal(data, &eb); err != nil {
						t.Fatalf("%s: %v\n%s", surface, err, data)
					}
					got.ErrClass = eb.Error.Class
				case surface == "/v1/map":
					var v JobView
					if err := json.Unmarshal(data, &v); err != nil {
						t.Fatalf("%s: %v\n%s", surface, err, data)
					}
					got.Cache, got.JobStatus, got.Fingerprint, jobID = v.Cache, v.Status, v.Fingerprint, v.ID
				default:
					var v BatchView
					if err := json.Unmarshal(data, &v); err != nil || len(v.Items) != 1 {
						t.Fatalf("%s: %v\n%s", surface, err, data)
					}
					it := v.Items[0]
					got.Cache, got.JobStatus, got.Fingerprint, jobID = it.Cache, it.Status, it.Fingerprint, it.JobID
				}
				got.HasJob = jobID != ""
				if tc.header != "" {
					job, ok := srv.Job(jobID)
					if !ok || job.Origin() != tc.header {
						t.Errorf("%s: forwarded-in job lost its origin %q", surface, tc.header)
					}
					if d := st1.ClusterOriginJobs - st0.ClusterOriginJobs; d != 1 {
						t.Errorf("%s: originJobs moved by %d, want 1", surface, d)
					}
				}
				results[surface] = got

				close(release)
				ts.Close()
				drain(t, e)
			}

			m := results["/v1/map"]
			if b, ok := results["/v1/batch"]; ok && !reflect.DeepEqual(m, b) {
				t.Errorf("surfaces disagree:\n/v1/map:   %+v\n/v1/batch: %+v", m, b)
			}
			want := tc.want
			want.Fingerprint = m.Fingerprint // content-derived; pinned only across surfaces
			if !reflect.DeepEqual(m, want) {
				t.Errorf("/v1/map:\n got %+v\nwant %+v", m, want)
			}
		})
	}
}

// A batch item whose in-flight twin completes between admission's
// unlocked cache probe and s.mu must resolve as a cache hit — no job,
// no journal record, no queue slot — exactly as a /v1/map submission
// has since the PR 10 re-check. The test parks the handler on s.mu,
// lands the twin's result in the cache, and lets it through. (Should
// the Put ever win the race against the handler's first probe the item
// is a plain hit and the assertions hold vacuously; they can never
// fail spuriously.)
func TestBatchItemRechecksCacheUnderLock(t *testing.T) {
	run, countOf := countingRun()
	jdir := filepath.Join(t.TempDir(), "journal")
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run, JournalDir: jdir, JournalNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := srv.resolve(&Request{Kernel: "fir", Scale: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kinds0 := journalKinds()

	srv.mu.Lock()
	type answer struct {
		code int
		data []byte
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
			strings.NewReader(`{"items":[{"kernel":"fir","scale":0.25,"seed":5}]}`))
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		done <- answer{resp.StatusCode, data, err}
	}()
	// batchRequests ticks just before admit runs; a poll interval later
	// the handler has missed the cache and is queued on s.mu.
	waitFor(t, func() bool { return srv.met.batchRequests.Value() == 1 }, "the batch to reach admission")
	time.Sleep(5 * time.Millisecond)
	srv.cache.Put(Entry{Fingerprint: res.fingerprint, Summary: core.Summary{Kernel: "twin", Success: true}})
	srv.mu.Unlock()

	a := <-done
	var v BatchView
	if a.err == nil {
		a.err = json.Unmarshal(a.data, &v)
	}
	if a.err != nil || a.code != http.StatusOK || len(v.Items) != 1 {
		t.Fatalf("batch: status %d, err %v, want 200 with one item: %s", a.code, a.err, a.data)
	}
	if it := v.Items[0]; it.Cache != "hit" || it.JobID != "" || it.Result == nil || it.Result.Kernel != "twin" {
		t.Fatalf("item did not resolve from the twin's cache entry: %+v", it)
	}
	if kinds := kindsSince(kinds0); len(kinds) != 0 {
		t.Fatalf("a cache-resolved item journaled %v", kinds)
	}
	if st := srv.Stats(); st.CacheHits != 1 || st.CacheMisses != 0 || st.BatchItemsHit != 1 || st.BatchItemsEnqueued != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if n := countOf(res.fingerprint); n != 0 {
		t.Fatalf("fingerprint executed %d times, want 0", n)
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
	"panorama/internal/faultinject"
)

// An over-budget run fails with 504 and class budget on its first
// attempt: the service never swaps in a cheaper mapper, and an abort
// is never cached.
func TestBudgetFailsWithoutStepDown(t *testing.T) {
	var mu sync.Mutex
	var mappers []string
	srv, err := New(Options{
		Workers: 1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			mu.Lock()
			mappers = append(mappers, job.Mapper)
			mu.Unlock()
			if job.Mapper == "pan-spr" {
				return core.Summary{}, failure.Stage("clustermap", fmt.Errorf("sweep: %w", failure.ErrBudget))
			}
			return core.Summary{Kernel: "cheaper", Success: true, MII: 1, II: 3}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":1,"wait":true}`)
	if code != http.StatusGatewayTimeout || v.Status != JobFailed || v.Error == nil || v.Error.Class != failure.ClassBudget {
		t.Fatalf("status %d view %+v, want a 504 budget failure", code, v)
	}
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", v.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(mappers) != 1 || mappers[0] != "pan-spr" {
		t.Fatalf("Run saw mappers %v, want [pan-spr]", mappers)
	}
	if n := srv.Cache().Len(); n != 0 {
		t.Fatalf("%d cache entries after a budget abort, want 0", n)
	}
}

// A panicking executor fails its job, not its worker: the job answers
// 500 with the panic class after one attempt, the failure counts as
// "other", and the same worker then serves the next job.
func TestPanicFailsTheJob(t *testing.T) {
	var calls atomic.Int64
	srv, err := New(Options{
		Workers: 1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			if calls.Add(1) == 1 {
				panic("mapper bug")
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

	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":1,"wait":true}`)
	if code != http.StatusInternalServerError || v.Attempts != 1 || v.Error == nil || v.Error.Class != failure.ClassPanic {
		t.Fatalf("status %d view %+v, want 500 with class %s after one attempt", code, v, failure.ClassPanic)
	}
	job, _ := srv.Job(v.ID)
	var pe *failure.PanicError
	if !errors.As(job.Err(), &pe) || len(pe.Stack) == 0 {
		t.Fatalf("job error %v, want a PanicError with its stack", job.Err())
	}
	if st := srv.Stats(); st.FailedOther != 1 || st.Executed != 1 {
		t.Fatalf("failed other=%d executed=%d, want 1/1", st.FailedOther, st.Executed)
	}
	if code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":2,"wait":true}`); code != http.StatusOK {
		t.Fatalf("next job on the same worker: status %d view %+v, want 200", code, v)
	}
}

// An injected service.run fault fails its job once; nothing re-runs
// it, and a resubmission of the same request completes.
func TestServiceRunFaultInjection(t *testing.T) {
	defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServiceRun, Kind: faultinject.Error, From: 1, Count: 1},
	}})()
	srv, err := New(Options{
		Workers: 1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return core.Summary{Kernel: "ok", Success: true, MII: 1, II: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const body = `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":1,"wait":true}`
	code, v := postMap(t, ts.URL, body)
	if code != http.StatusInternalServerError || v.Attempts != 1 {
		t.Fatalf("status %d attempts %d, want 500/1", code, v.Attempts)
	}
	if got := faultinject.Hits(faultinject.SiteServiceRun); got != 1 {
		t.Fatalf("service.run hits = %d, want 1", got)
	}
	if code, v := postMap(t, ts.URL, body); code != http.StatusOK || v.Attempts != 1 {
		t.Fatalf("resubmission: status %d attempts %d, want 200/1", code, v.Attempts)
	}
}

// The pipeline's own deadline is the only clock: a 1 ms budget on the
// real Pan-SPR* pipeline answers 504 budget on its one attempt, every
// seed, and promptly.
func TestBudgetAnswersOnce(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for seed := 1; seed <= 8; seed++ {
		t0 := time.Now()
		code, v := postMap(t, ts.URL, fmt.Sprintf(
			`{"kernel":"conv2d","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":%d,"timeoutMS":1,"wait":true}`, seed))
		took := time.Since(t0)
		if code != http.StatusGatewayTimeout || v.Error == nil || v.Error.Class != failure.ClassBudget || v.Attempts != 1 {
			t.Errorf("seed %d: status %d view %+v, want 504 budget after one attempt", seed, code, v)
		}
		// The race detector slows the pipeline several-fold.
		if !raceEnabled && took > 100*time.Millisecond {
			t.Errorf("seed %d: answered after %v, want within 100ms", seed, took)
		}
	}
}

// A journal whose every append fails (dead disk) degrades the service
// to non-durable operation instead of refusing work.
func TestJournalAppendFaultDegradesGracefully(t *testing.T) {
	srv, err := New(Options{
		Workers:       1,
		JournalDir:    t.TempDir(),
		JournalNoSync: true,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return core.Summary{Kernel: "ok", Success: true, MII: 1, II: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	disarm := faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteJournalAppend, Kind: faultinject.Error, From: 1},
	}})
	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":1,"wait":true}`)
	disarm()
	if code != http.StatusOK || v.Status != JobDone {
		t.Fatalf("status %d view %+v: a failing journal must not fail jobs", code, v)
	}
	st := srv.Stats()
	if st.JournalErrors == 0 {
		t.Fatal("journal append errors not counted")
	}
	// With the disk healthy again the journal resumes.
	code, _ = postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":2,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("post-fault submission: status %d", code)
	}
}

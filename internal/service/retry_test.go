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

// The retry classifier over every failure type of the taxonomy: each
// class must map to exactly the documented retry/no-retry decision.
func TestRetryDecisionTable(t *testing.T) {
	transient := errors.New("worker exploded")
	panicErr := failure.NewPanic(2, "boom", []byte("stack"))
	cases := []struct {
		name     string
		err      error
		attempt  int
		max      int
		watchdog bool
		want     bool
	}{
		{name: "nil error", err: nil, attempt: 1, max: 3, want: false},
		{name: "transient retries", err: transient, attempt: 1, max: 3, want: true},
		{name: "transient at attempt cap", err: transient, attempt: 3, max: 3, want: false},
		{name: "staged transient retries", err: failure.Stage("lower", transient), attempt: 1, max: 3, want: true},
		{name: "panic retries", err: panicErr, attempt: 1, max: 3, want: true},
		{name: "staged panic retries", err: failure.Stage("clustermap", panicErr), attempt: 2, max: 3, want: true},
		{name: "watchdog trip retries", err: fmt.Errorf("run: %w", context.Canceled), attempt: 1, max: 3, watchdog: true, want: true},
		{name: "watchdog at attempt cap", err: context.Canceled, attempt: 3, max: 3, watchdog: true, want: false},
		{name: "caller cancellation fails", err: failure.Stage("lower", fmt.Errorf("ctx: %w", failure.ErrCancelled)), attempt: 1, max: 3, want: false},
		{name: "raw context.Canceled fails", err: context.Canceled, attempt: 1, max: 3, want: false},
		{name: "infeasible never retries", err: failure.ErrInfeasible, attempt: 1, max: 3, want: false},
		{name: "staged infeasible never retries", err: failure.Stage("clustermap", fmt.Errorf("no ζ: %w", failure.ErrInfeasible)), attempt: 1, max: 3, want: false},
		{name: "budget fails", err: failure.ErrBudget, attempt: 1, max: 3, want: false},
		{name: "staged budget fails", err: failure.Stage("lower", fmt.Errorf("t: %w", failure.ErrBudget)), attempt: 1, max: 3, want: false},
		{name: "deadline counts as budget", err: context.DeadlineExceeded, attempt: 1, max: 3, want: false},
		{name: "budget at attempt cap fails", err: failure.ErrBudget, attempt: 3, max: 3, want: false},
		{name: "lower-failed is deterministic", err: fmt.Errorf("%w: every rung", failure.ErrLowerFailed), attempt: 1, max: 3, want: false},
	}
	for _, c := range cases {
		if got := shouldRetry(c.err, c.attempt, c.max, c.watchdog); got != c.want {
			t.Errorf("%s: shouldRetry = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBackoffBoundsAndJitter(t *testing.T) {
	if d := backoff(0, 1); d != 0 {
		t.Fatalf("backoff(0, 1) = %v, want 0", d)
	}
	for i := 0; i < 100; i++ {
		if d := backoff(50*time.Millisecond, 1); d < 25*time.Millisecond || d >= 75*time.Millisecond {
			t.Fatalf("backoff attempt 1 = %v, want [25ms, 75ms)", d)
		}
		if d := backoff(50*time.Millisecond, 2); d < 50*time.Millisecond || d >= 150*time.Millisecond {
			t.Fatalf("backoff attempt 2 = %v, want [50ms, 150ms)", d)
		}
		if d := backoff(50*time.Millisecond, 30); d < maxBackoff/2 || d >= maxBackoff+maxBackoff/2 {
			t.Fatalf("capped backoff = %v, want [%v, %v)", d, maxBackoff/2, maxBackoff+maxBackoff/2)
		}
	}
}

// A transiently failing executor: two worker faults, then success. The
// job must survive without the client ever seeing an error.
func TestRetryTransientFaultRecovers(t *testing.T) {
	var calls atomic.Int64
	srv, err := New(Options{
		Workers:   1,
		RetryBase: -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			if calls.Add(1) < 3 {
				return core.Summary{}, errors.New("transient worker fault")
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
	if code != http.StatusOK || v.Status != JobDone {
		t.Fatalf("status %d view %+v, want a completed job", code, v)
	}
	if v.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", v.Attempts)
	}
	st := srv.Stats()
	if st.Retried != 2 || st.Executed != 3 || st.Completed != 1 {
		t.Fatalf("retried=%d executed=%d completed=%d, want 2/3/1", st.Retried, st.Executed, st.Completed)
	}
}

// An over-budget run fails with 504 and class budget on its first
// attempt: the service never swaps in a cheaper mapper, and an abort
// is never cached.
func TestBudgetFailsWithoutStepDown(t *testing.T) {
	var mu sync.Mutex
	var mappers []string
	srv, err := New(Options{
		Workers:   1,
		RetryBase: -1,
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

// A panicking executor is isolated to its attempt: the worker survives
// and the retry succeeds.
func TestPanicIsRetried(t *testing.T) {
	var calls atomic.Int64
	srv, err := New(Options{
		Workers:   1,
		RetryBase: -1,
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
	if code != http.StatusOK || v.Attempts != 2 {
		t.Fatalf("status %d attempts %d, want 200/2", code, v.Attempts)
	}
	if st := srv.Stats(); st.Retried != 1 {
		t.Fatalf("retried=%d, want 1", st.Retried)
	}
}

// The watchdog cancels a stalled run at Budgets.Total × grace and the
// stall — unlike a caller cancellation — is retried.
func TestWatchdogCancelsStalledRun(t *testing.T) {
	var calls atomic.Int64
	srv, err := New(Options{
		Workers:   1,
		RetryBase: -1,
		Budgets:   core.Budgets{Total: 30 * time.Millisecond},
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // a stalled worker: ignores its budget entirely
				return core.Summary{}, ctx.Err()
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
	if code != http.StatusOK || v.Status != JobDone {
		t.Fatalf("status %d view %+v, want the stalled run retried to completion", code, v)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (stall + retry)", v.Attempts)
	}
	if st := srv.Stats(); st.Retried != 1 {
		t.Fatalf("retried=%d, want 1", st.Retried)
	}
}

// An injected service.run fault looks like a transient worker fault
// and drives one retry.
func TestServiceRunFaultInjection(t *testing.T) {
	defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServiceRun, Kind: faultinject.Error, From: 1, Count: 1},
	}})()
	srv, err := New(Options{
		Workers:   1,
		RetryBase: -1,
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

	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":1,"wait":true}`)
	if code != http.StatusOK || v.Attempts != 2 {
		t.Fatalf("status %d attempts %d, want 200/2", code, v.Attempts)
	}
	if got := faultinject.Hits(faultinject.SiteServiceRun); got != 2 {
		t.Fatalf("service.run hits = %d, want 2", got)
	}
}

// A journal whose every append fails (dead disk) degrades the service
// to non-durable operation instead of refusing work.
func TestJournalAppendFaultDegradesGracefully(t *testing.T) {
	srv, err := New(Options{
		Workers:       1,
		RetryBase:     -1,
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

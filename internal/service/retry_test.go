package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
	"panorama/internal/faultinject"
)

// The retry classifier over every failure type of the taxonomy: each
// class must map to exactly the documented retry/no-retry/degrade
// decision.
func TestRetryDecisionTable(t *testing.T) {
	transient := errors.New("worker exploded")
	panicErr := failure.NewPanic(2, "boom", []byte("stack"))
	cases := []struct {
		name     string
		err      error
		attempt  int
		max      int
		mapper   string
		degraded bool
		watchdog bool
		want     decision
	}{
		{name: "nil error", err: nil, attempt: 1, max: 3, mapper: "pan-spr", want: decideFail},
		{name: "transient retries", err: transient, attempt: 1, max: 3, mapper: "pan-spr", want: decideRetry},
		{name: "transient at attempt cap", err: transient, attempt: 3, max: 3, mapper: "pan-spr", want: decideFail},
		{name: "staged transient retries", err: failure.Stage("lower", transient), attempt: 1, max: 3, mapper: "spr", want: decideRetry},
		{name: "panic retries", err: panicErr, attempt: 1, max: 3, mapper: "pan-spr", want: decideRetry},
		{name: "staged panic retries", err: failure.Stage("clustermap", panicErr), attempt: 2, max: 3, mapper: "pan-spr", want: decideRetry},
		{name: "watchdog trip retries", err: fmt.Errorf("run: %w", context.Canceled), attempt: 1, max: 3, mapper: "pan-spr", watchdog: true, want: decideRetry},
		{name: "watchdog at attempt cap", err: context.Canceled, attempt: 3, max: 3, mapper: "pan-spr", watchdog: true, want: decideFail},
		{name: "caller cancellation fails", err: failure.Stage("lower", fmt.Errorf("ctx: %w", failure.ErrCancelled)), attempt: 1, max: 3, mapper: "pan-spr", want: decideFail},
		{name: "raw context.Canceled fails", err: context.Canceled, attempt: 1, max: 3, mapper: "pan-spr", want: decideFail},
		{name: "infeasible never retries", err: failure.ErrInfeasible, attempt: 1, max: 3, mapper: "pan-spr", want: decideFail},
		{name: "staged infeasible never retries", err: failure.Stage("clustermap", fmt.Errorf("no ζ: %w", failure.ErrInfeasible)), attempt: 1, max: 3, mapper: "pan-spr", want: decideFail},
		{name: "budget degrades pan-spr", err: failure.ErrBudget, attempt: 1, max: 3, mapper: "pan-spr", want: decideDegrade},
		{name: "budget degrades spr", err: failure.Stage("lower", fmt.Errorf("t: %w", failure.ErrBudget)), attempt: 1, max: 3, mapper: "spr", want: decideDegrade},
		{name: "deadline counts as budget", err: context.DeadlineExceeded, attempt: 1, max: 3, mapper: "pan-spr", want: decideDegrade},
		{name: "budget with no cheaper rung fails", err: failure.ErrBudget, attempt: 1, max: 3, mapper: "ultrafast", want: decideFail},
		{name: "budget degrades only once", err: failure.ErrBudget, attempt: 2, max: 3, mapper: "pan-ultrafast", degraded: true, want: decideFail},
		{name: "budget at attempt cap fails", err: failure.ErrBudget, attempt: 3, max: 3, mapper: "pan-spr", want: decideFail},
		{name: "lower-failed is deterministic", err: fmt.Errorf("%w: every rung", failure.ErrLowerFailed), attempt: 1, max: 3, mapper: "pan-spr", want: decideFail},
	}
	for _, c := range cases {
		got := retryDecision(c.err, c.attempt, c.max, c.mapper, c.degraded, c.watchdog)
		if got != c.want {
			t.Errorf("%s: retryDecision = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDegradeMapperLadder(t *testing.T) {
	// The ladder comes from the core registry: portfolio → spr →
	// ultrafast, sat → spr, with "pan-" preserved across the step.
	for m, want := range map[string]string{
		"pan-portfolio": "pan-spr",
		"portfolio":     "spr",
		"pan-sat":       "pan-spr",
		"sat":           "spr",
		"pan-spr":       "pan-ultrafast",
		"spr":           "ultrafast",
		"pan-ultrafast": "",
		"ultrafast":     "",
		"bogus":         "",
	} {
		if got := core.DegradeOf(m); got != want {
			t.Errorf("core.DegradeOf(%q) = %q, want %q", m, got, want)
		}
	}
	// Every accepted request mapper must reach the bottom of the ladder
	// in finitely many steps — a cycle would retry forever.
	for _, m := range core.MapperNames() {
		hops := 0
		for cur := m; cur != ""; cur = core.DegradeOf(cur) {
			if hops++; hops > len(core.MapperNames()) {
				t.Fatalf("degrade ladder from %q does not terminate", m)
			}
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

// An over-budget guided run steps down to the UltraFast rung — and the
// degraded result must be cached under the degraded key, never under
// the original fingerprint.
func TestBudgetDegradesToCheaperMapper(t *testing.T) {
	srv, err := New(Options{
		Workers:   1,
		RetryBase: -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			if job.currentMapper() == "pan-spr" {
				return core.Summary{}, failure.Stage("clustermap", fmt.Errorf("sweep: %w", failure.ErrBudget))
			}
			return core.Summary{Kernel: "degraded", Success: true, MII: 1, II: 3}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":1,"wait":true}`)
	if code != http.StatusOK || v.Status != JobDone {
		t.Fatalf("status %d view %+v, want a completed job", code, v)
	}
	if v.RunMapper != "pan-ultrafast" || v.Attempts != 2 {
		t.Fatalf("runMapper=%q attempts=%d, want pan-ultrafast/2", v.RunMapper, v.Attempts)
	}
	if _, ok := srv.Cache().Get(v.Fingerprint); ok {
		t.Fatal("degraded result cached under the full-strength fingerprint (cache poisoning)")
	}
	if st := srv.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded=%d, want 1", st.Degraded)
	}
	// The same request again must recompute (or re-degrade), never hit
	// the poisoned key.
	code, v2 := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":1,"wait":true}`)
	if code != http.StatusOK || v2.Cache == "hit" {
		t.Fatalf("second submission: status %d cache %q, want a fresh computation", code, v2.Cache)
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

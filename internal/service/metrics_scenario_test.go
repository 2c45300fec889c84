package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"panorama/internal/core"
	"panorama/internal/failure"
)

// runMetricsScenario drives a fresh server through every counted path
// on a stubbed executor, one request at a time, so each series it
// leaves behind is exact: a miss and its hit; a coalesce onto a blocked
// job; a batch with every item disposition (hit, coalesced, enqueued,
// dup, error); a queue-full rejection of a single submission and of a
// whole batch; one terminal failure per class; and a job stream, a resumed job stream and a batch stream read to their
// end. The caller owns the returned server and listener.
func runMetricsScenario(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	gate, blocked := make(chan struct{}), make(chan struct{})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		switch job.Seed {
		case 2:
			close(blocked)
			<-gate
		case 3:
			// A failed run salvages a partial summary.
			return core.Summary{Kernel: "stub", Stages: []core.StageRecord{{Stage: "clustering"}}},
				failure.Stage("lower", failure.ErrBudget)
		case 4:
			return core.Summary{}, failure.ErrCancelled
		case 5:
			return core.Summary{}, failure.Stage("clustermap", failure.ErrInfeasible)
		case 6:
			return core.Summary{}, errors.New("boom")
		}
		return core.Summary{Kernel: "stub", Success: true, Stages: []core.StageRecord{
			{Stage: "clustering"},
			{Stage: "clustermap"},
			{Stage: "lower"},
		}}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 2, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	spec := func(seed int) string {
		return fmt.Sprintf(`{"kernel":"fir","scale":0.1,"mapper":"pan-spr","seed":%d}`, seed)
	}
	submit := func(seed int, wait bool, wantCode int, wantCache string) JobView {
		t.Helper()
		body := spec(seed)
		if wait {
			body = body[:len(body)-1] + `,"wait":true}`
		}
		code, v := postMap(t, ts.URL, body)
		if code != wantCode || v.Cache != wantCache {
			t.Fatalf("seed %d: status %d cache %q, want %d %q", seed, code, v.Cache, wantCode, wantCache)
		}
		return v
	}

	first := submit(1, true, http.StatusOK, "")
	submit(1, false, http.StatusOK, "hit")

	holder := submit(2, false, http.StatusAccepted, "")
	<-blocked // the worker is parked in seed 2; the queue is empty
	submit(2, false, http.StatusAccepted, "coalesced")
	code, _, batch := postBatch(t, ts.URL, fmt.Sprintf(`{"items":[%s,%s,%s,%s,{"kernel":"no-such-kernel"}]}`,
		spec(1), spec(2), spec(7), spec(7)))
	if code != http.StatusAccepted || batch.Hits != 1 || batch.Coalesced != 1 || batch.Enqueued != 1 || batch.Dups != 1 || batch.Errors != 1 {
		t.Fatalf("batch: status %d %+v, want 202 with one item per disposition", code, batch)
	}
	filler := submit(8, false, http.StatusAccepted, "") // the queue is full now
	if code, _ := postMap(t, ts.URL, spec(9)); code != http.StatusTooManyRequests {
		t.Fatalf("submission into a full queue: status %d, want 429", code)
	}
	if code, _, _ := postBatch(t, ts.URL, fmt.Sprintf(`{"items":[%s,%s]}`, spec(10), spec(11))); code != http.StatusTooManyRequests {
		t.Fatalf("batch into a full queue: status %d, want 429", code)
	}
	close(gate)
	for _, id := range []string{holder.ID, batch.Items[2].JobID, filler.ID} {
		waitForStatus(t, ts.URL, id, JobDone)
	}

	submit(3, true, http.StatusGatewayTimeout, "")
	submit(4, true, StatusClientClosedRequest, "")
	submit(5, true, http.StatusUnprocessableEntity, "")
	submit(6, true, http.StatusInternalServerError, "")

	for _, stream := range []struct {
		path   string
		lastID int
	}{
		{"/v1/jobs/" + first.ID + "/events", 0},
		{"/v1/jobs/" + first.ID + "/events", 1},
		{"/v1/batch/" + batch.ID + "/events", 0},
	} {
		resp := openStream(t, context.Background(), ts.URL+stream.path, stream.lastID)
		drainSSE(t, resp.Body)
		resp.Body.Close()
	}
	// A waiter can observe a job done, and a reader its stream's end, a
	// moment before the worker and the handler step out of their gauges.
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.RunningJobs == 0 && st.SSEActive == 0
	}, "the gauges to settle")
	return srv, ts
}

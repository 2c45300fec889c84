package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
)

// webhookSink records deliveries: bodies, signatures and event
// headers, with an optional per-attempt failure schedule.
type webhookSink struct {
	mu        sync.Mutex
	bodies    [][]byte
	sigs      []string
	events    []string
	failFirst int // answer 500 to this many requests before succeeding
	attempts  atomic.Int64
}

func (ws *webhookSink) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := ws.attempts.Add(1)
		body, _ := io.ReadAll(r.Body)
		ws.mu.Lock()
		failing := int(n) <= ws.failFirst
		if !failing {
			ws.bodies = append(ws.bodies, body)
			ws.sigs = append(ws.sigs, r.Header.Get(HeaderWebhookSignature))
			ws.events = append(ws.events, r.Header.Get(HeaderWebhookEvent))
		}
		ws.mu.Unlock()
		if failing {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

func (ws *webhookSink) delivered() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.bodies)
}

// A completed job fires one signed webhook whose body carries the
// job's outcome and whose HMAC verifies under the shared secret.
func TestWebhookOnCompleteSigned(t *testing.T) {
	sink := &webhookSink{}
	recv := httptest.NewServer(sink.handler())
	defer recv.Close()

	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "hooked", Success: true}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run,
		WebhookURL: recv.URL, WebhookSecret: "fleet-secret"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, view := postMap(t, ts.URL, `{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"ultrafast","seed":1,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("map: status %d", code)
	}
	waitFor(t, func() bool { return sink.delivered() >= 1 }, "webhook delivery")

	sink.mu.Lock()
	body, sig, event := sink.bodies[0], sink.sigs[0], sink.events[0]
	sink.mu.Unlock()
	if event != "job.done" {
		t.Errorf("event header %q, want job.done", event)
	}
	if !VerifyWebhook("fleet-secret", body, sig) {
		t.Errorf("signature %q does not verify", sig)
	}
	if VerifyWebhook("wrong-secret", body, sig) {
		t.Error("signature verifies under the wrong secret")
	}
	var payload WebhookPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Event != "job.done" || payload.Job.ID != view.ID ||
		payload.Job.Result == nil || payload.Job.Result.Kernel != "hooked" {
		t.Fatalf("payload %+v, want job.done for %s", payload, view.ID)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.WebhooksSent != 1 || st.WebhooksFailed != 0 {
		t.Errorf("webhook stats sent=%d failed=%d, want 1/0", st.WebhooksSent, st.WebhooksFailed)
	}
}

// Failed deliveries climb the retry ladder and succeed without
// dropping the event; a failed
// job fires a job.failed event; per-request webhooks override the
// server-wide destination.
func TestWebhookRetryAndFailureEvent(t *testing.T) {
	sink := &webhookSink{failFirst: 2}
	recv := httptest.NewServer(sink.handler())
	defer recv.Close()

	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{}, fmt.Errorf("%w: nope", failure.ErrInfeasible)
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run,
		WebhookSecret: "s", WebhookMaxAttempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No server-wide URL: the request names its own webhook.
	body := fmt.Sprintf(`{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"ultrafast","seed":2,"wait":true,"webhook":%q}`, recv.URL)
	code, _ := postMap(t, ts.URL, body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("map: status %d, want 422", code)
	}
	waitFor(t, func() bool { return sink.delivered() >= 1 }, "retried webhook delivery")

	sink.mu.Lock()
	event := sink.events[0]
	delivered, attempts := len(sink.bodies), sink.attempts.Load()
	sink.mu.Unlock()
	if event != "job.failed" {
		t.Errorf("event header %q, want job.failed", event)
	}
	if delivered != 1 || attempts != 3 {
		t.Errorf("delivered=%d attempts=%d, want 1 delivery on the 3rd attempt", delivered, attempts)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.WebhooksSent != 1 || st.WebhooksRetried != 2 || st.WebhooksFailed != 0 {
		t.Errorf("webhook stats sent=%d retried=%d failed=%d, want 1/2/0",
			st.WebhooksSent, st.WebhooksRetried, st.WebhooksFailed)
	}
	// The webhook URL is delivery metadata: it must not have changed
	// the fingerprint. The same request without it coalesces onto the
	// cached failure... (failures aren't cached, so just recheck the
	// fingerprint directly).
	resNo, err := srv.resolve(&Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "ultrafast", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resWith, err := srv.resolve(&Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "ultrafast", Seed: 2, Webhook: recv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if resNo.fingerprint != resWith.fingerprint {
		t.Error("webhook URL leaked into the fingerprint")
	}
}

// Shutdown drains queued webhook deliveries before returning, and a
// dead receiver exhausts the ladder into webhookFailed rather than
// wedging shutdown.
func TestWebhookShutdownDrainAndGiveUp(t *testing.T) {
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "k", Success: true}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run,
		WebhookURL:         "http://127.0.0.1:1/hook",
		WebhookMaxAttempts: 2, WebhookTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, _ := postMap(t, ts.URL, `{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"ultrafast","seed":3,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("map: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.WebhooksFailed != 1 || st.WebhooksRetried != 1 {
		t.Errorf("webhook stats failed=%d retried=%d, want 1/1", st.WebhooksFailed, st.WebhooksRetried)
	}
}

func TestBackoffBoundsAndJitter(t *testing.T) {
	for i := 0; i < 100; i++ {
		if d := backoff(1); d < 25*time.Millisecond || d >= 75*time.Millisecond {
			t.Fatalf("backoff attempt 1 = %v, want [25ms, 75ms)", d)
		}
		if d := backoff(2); d < 50*time.Millisecond || d >= 150*time.Millisecond {
			t.Fatalf("backoff attempt 2 = %v, want [50ms, 150ms)", d)
		}
		if d := backoff(30); d < maxBackoff/2 || d >= maxBackoff+maxBackoff/2 {
			t.Fatalf("capped backoff = %v, want [%v, %v)", d, maxBackoff/2, maxBackoff+maxBackoff/2)
		}
	}
}

package service

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// HeaderWebhookSignature carries the hex HMAC-SHA256 of the webhook
// body, keyed by Options.WebhookSecret: "sha256=<hex>". Receivers
// recompute it over the raw body and compare with hmac.Equal before
// trusting the payload (see DEPLOYMENT.md for a verifier sketch).
const HeaderWebhookSignature = "X-Panorama-Signature"

// HeaderWebhookEvent names the event type ("job.done", "job.failed")
// so receivers can route without parsing the body.
const HeaderWebhookEvent = "X-Panorama-Event"

// Delivery bounds: one attempt may take webhookTimeout, and an event
// is abandoned (and counted failed) after webhookMaxAttempts attempts.
const (
	webhookTimeout     = 10 * time.Second
	webhookMaxAttempts = 3
)

// webhookQueueSize bounds undelivered webhook events; beyond it new
// events are dropped (and counted) rather than blocking job
// completion — delivery is at-most-once by design.
const webhookQueueSize = 256

// WebhookPayload is the wire body of a completion webhook.
type WebhookPayload struct {
	Event string  `json:"event"` // "job.done" or "job.failed"
	Job   JobView `json:"job"`
}

type webhookEvent struct {
	event string
	body  []byte
}

// webhookNotifier delivers signed job-completion POSTs from a single
// background sender, retrying each delivery on a capped exponential
// backoff.
// Construction is unconditional and cheap; the sender goroutine only
// starts once the first event is queued, so servers without webhooks
// (most tests) never pay for one.
type webhookNotifier struct {
	met    *metrics
	url    string
	secret string
	client *http.Client

	startOnce sync.Once
	closeOnce sync.Once
	queue     chan webhookEvent
	done      chan struct{}
}

// newWebhookNotifier wires a notifier from Options.
func newWebhookNotifier(met *metrics, opts Options) *webhookNotifier {
	return &webhookNotifier{
		met:    met,
		url:    opts.WebhookURL,
		secret: opts.WebhookSecret,
		client: &http.Client{},
		queue:  make(chan webhookEvent, webhookQueueSize),
		done:   make(chan struct{}),
	}
}

// notify queues a completion event for job if Options.WebhookURL is
// set. Never blocks: a full queue drops the event and counts the drop.
func (n *webhookNotifier) notify(job *Job) {
	if n.url == "" {
		return
	}
	event := "job.done"
	if job.Err() != nil {
		event = "job.failed"
	}
	body, err := json.Marshal(WebhookPayload{Event: event, Job: job.View()})
	if err != nil {
		log.Printf("service: webhook payload for %s: %v", job.ID, err)
		n.met.webhookDropped.Inc()
		return
	}
	n.startOnce.Do(func() { go n.run() })
	select {
	case n.queue <- webhookEvent{event: event, body: body}:
	default:
		n.met.webhookDropped.Inc()
	}
}

// run is the sender goroutine: one delivery (with retries) at a time,
// in completion order.
func (n *webhookNotifier) run() {
	defer close(n.done)
	for ev := range n.queue {
		n.deliver(ev)
	}
}

// deliver walks one event up the retry ladder.
func (n *webhookNotifier) deliver(ev webhookEvent) {
	for attempt := 1; ; attempt++ {
		err := n.post(ev)
		if err == nil {
			n.met.webhookSent.Inc()
			return
		}
		if attempt >= webhookMaxAttempts {
			n.met.webhookFailed.Inc()
			log.Printf("service: webhook %s: giving up after %d attempt(s): %v", n.url, attempt, err)
			return
		}
		n.met.webhookRetried.Inc()
		time.Sleep(backoff(attempt))
	}
}

// post performs one signed delivery attempt; any non-2xx answer is an
// error (and retried).
func (n *webhookNotifier) post(ev webhookEvent) error {
	ctx, cancel := context.WithTimeout(context.Background(), webhookTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url, bytes.NewReader(ev.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderWebhookEvent, ev.event)
	if n.secret != "" {
		req.Header.Set(HeaderWebhookSignature, SignWebhook(n.secret, ev.body))
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// webhookBackoffBase is the sleep before a delivery's first retry; it
// doubles per retry up to maxBackoff.
const webhookBackoffBase = 50 * time.Millisecond

// maxBackoff caps the exponential growth so a long retry chain never
// sleeps more than a few seconds between attempts.
const maxBackoff = 5 * time.Second

// backoff returns the sleep before re-running attempt+1: the base
// doubled per prior attempt, capped, with ±50% jitter so a burst of
// failing deliveries doesn't thunder back in lockstep.
func backoff(attempt int) time.Duration {
	d := webhookBackoffBase
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// Jitter in [d/2, 3d/2).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// close stops accepting events and waits for the queue to drain,
// bounded by ctx (an already-expired ctx skips the wait — crash-style
// shutdowns drop undelivered webhooks, which at-most-once allows).
func (n *webhookNotifier) close(ctx context.Context) {
	// If the sender never started (no event was ever queued), the
	// startOnce here closes done so the wait below returns at once;
	// otherwise the sender closes done when the queue drains.
	n.startOnce.Do(func() { close(n.done) })
	n.closeOnce.Do(func() { close(n.queue) })
	select {
	case <-n.done:
	case <-ctx.Done():
	}
}

// SignWebhook computes the signature header value for body under
// secret — exported so webhook receivers (and tests) can verify
// deliveries with the exact algorithm the sender uses.
func SignWebhook(secret string, body []byte) string {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(body)
	return "sha256=" + hex.EncodeToString(mac.Sum(nil))
}

// VerifyWebhook reports whether header is a valid signature of body
// under secret (constant-time compare).
func VerifyWebhook(secret string, body []byte, header string) bool {
	return hmac.Equal([]byte(SignWebhook(secret, body)), []byte(header))
}

package service

import (
	"math"
	"sync"
	"time"
)

// retryAfterFallback is the Retry-After hint before the estimator has
// observed a recent completion.
const retryAfterFallback = time.Second

// drainWindow is how far back the estimator looks for completions.
const drainWindow = 30 * time.Second

// drainRing is the completion-timestamp ring capacity. 64 samples over
// a 30s window resolves drain rates down to ~2/s without unbounded
// memory.
const drainRing = 64

// drainEstimator observes job completion times and turns the current
// backlog into a Retry-After hint: "at the pace jobs have been
// finishing lately, how long until the backlog has drained?". It is a
// fixed-size ring of completion timestamps, so recording is O(1) and
// lock contention is negligible next to a mapping run.
type drainEstimator struct {
	window time.Duration
	now    func() time.Time // injectable clock for deterministic tests

	mu    sync.Mutex
	times [drainRing]time.Time
	idx   int
	n     int
}

func newDrainEstimator() *drainEstimator {
	return &drainEstimator{window: drainWindow, now: time.Now}
}

// record notes one job reaching a terminal state.
func (d *drainEstimator) record() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.times[d.idx] = d.now()
	d.idx = (d.idx + 1) % drainRing
	if d.n < drainRing {
		d.n++
	}
	d.mu.Unlock()
}

// hint estimates how long a client should wait before retrying, given
// the current backlog (queued + running jobs). With no completions
// inside the window there is no observed rate, so the given
// fallback is returned unchanged — deterministic for tests and honest
// at cold start. Otherwise the estimate is (backlog+1) jobs at the
// observed drain rate (the +1 being the caller's own job), rounded up
// to whole seconds and clamped to [1s, 60s] so a momentary stall never
// tells clients to go away for minutes.
//
// Stale samples are evicted by timestamp, and the drain rate is
// computed over the span the surviving samples actually cover (floored
// at 1s), not over the whole window, so a burst after an idle stretch
// reads as the burst's rate (TestDrainEstimatorIdleThenBurst).
func (d *drainEstimator) hint(backlog int, fallback time.Duration) time.Duration {
	if d == nil {
		return fallback
	}
	now := d.now()
	d.mu.Lock()
	k := 0
	var oldest time.Time
	for i := 0; i < d.n; i++ {
		age := now.Sub(d.times[i])
		if age < 0 || age > d.window {
			continue // stale (or clock went backwards): evicted
		}
		if k == 0 || d.times[i].Before(oldest) {
			oldest = d.times[i]
		}
		k++
	}
	d.mu.Unlock()
	if k == 0 {
		return fallback
	}
	span := now.Sub(oldest)
	if span < time.Second {
		// A burst inside one second has no measurable span; treating it
		// as one second keeps the rate finite and conservative.
		span = time.Second
	}
	secs := float64(backlog+1) * span.Seconds() / float64(k)
	wait := time.Duration(math.Ceil(secs)) * time.Second
	if wait < time.Second {
		wait = time.Second
	}
	if wait > 60*time.Second {
		wait = 60 * time.Second
	}
	return wait
}

// retryAfterSeconds is the whole-second Retry-After value for 429
// responses: the drain estimate over the live backlog, falling back to
// retryAfterFallback before any completion has been observed.
func (s *Server) retryAfterSeconds() int {
	backlog := len(s.queue) + int(s.running.Load())
	wait := s.drain.hint(backlog, retryAfterFallback)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

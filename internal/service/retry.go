package service

import (
	"errors"
	"math/rand"
	"time"

	"panorama/internal/failure"
)

// shouldRetry classifies a failed attempt against the failure
// taxonomy:
//
//   - watchdog trips (a stalled worker, surfacing as a cancellation)
//     retry: the stall, not the input, is suspect;
//   - ErrInfeasible never retries — the instance admits no solution
//     and re-running proves nothing;
//   - caller cancellations never retry — nobody is waiting;
//   - ErrBudget never retries — the one clock aborts, and a re-run on
//     the same mapper would hit the same budget;
//   - ErrLowerFailed is deterministic (every ladder rung failed hard)
//     and never retries;
//   - panics and unclassified errors are treated as transient — worker
//     faults, injected faults, races — and retry with backoff.
//
// attempt is the 1-based attempt that just failed; maxAttempts bounds
// the total (attempt budget, not retry count).
func shouldRetry(err error, attempt, maxAttempts int, watchdog bool) bool {
	if err == nil || attempt >= maxAttempts {
		return false
	}
	switch {
	case watchdog:
		return true
	case failure.IsCancelled(err), failure.IsInfeasible(err), failure.IsBudget(err),
		errors.Is(err, failure.ErrLowerFailed):
		return false
	default:
		return true
	}
}

// maxBackoff caps the exponential growth so a long retry chain never
// sleeps more than a few seconds between attempts.
const maxBackoff = 5 * time.Second

// backoff returns the sleep before re-running attempt+1: base doubled
// per prior attempt, capped, with ±50% jitter so a burst of failing
// jobs doesn't thunder back in lockstep.
func backoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// Jitter in [d/2, 3d/2).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

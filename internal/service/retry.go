package service

import (
	"errors"
	"math/rand"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
)

// decision is what the retry policy chose for a failed execution
// attempt.
type decision int

const (
	// decideFail ends the job with its error.
	decideFail decision = iota
	// decideRetry re-runs the job after a backoff.
	decideRetry
	// decideDegrade re-runs the job once on the next-cheaper mapper
	// rung after a backoff.
	decideDegrade
)

func (d decision) String() string {
	switch d {
	case decideRetry:
		return "retry"
	case decideDegrade:
		return "degrade"
	}
	return "fail"
}

// retryDecision classifies a failed attempt against the failure
// taxonomy:
//
//   - watchdog trips (a stalled worker, surfacing as a cancellation)
//     retry: the stall, not the input, is suspect;
//   - ErrInfeasible never retries — the instance admits no solution
//     and re-running proves nothing;
//   - caller cancellations never retry — nobody is waiting;
//   - ErrBudget retries once at the next rung of the degrade ladder
//     (core.DegradeOf: the cheaper mapper fits the same budget), and
//     fails when the job is already degraded or has nowhere cheaper to
//     go;
//   - ErrLowerFailed is deterministic (every ladder rung failed hard)
//     and never retries;
//   - panics and unclassified errors are treated as transient — worker
//     faults, injected faults, races — and retry with backoff.
//
// attempt is the 1-based attempt that just failed; maxAttempts bounds
// the total (attempt budget, not retry count).
func retryDecision(err error, attempt, maxAttempts int, mapper string, degraded, watchdog bool) decision {
	if err == nil || attempt >= maxAttempts {
		// A degrade is still worth one over-budget attempt only when
		// the budget allows another run at all.
		return decideFail
	}
	switch {
	case watchdog:
		return decideRetry
	case failure.IsCancelled(err):
		return decideFail
	case failure.IsInfeasible(err):
		return decideFail
	case failure.IsBudget(err):
		if !degraded && core.DegradeOf(mapper) != "" {
			return decideDegrade
		}
		return decideFail
	case errors.Is(err, failure.ErrLowerFailed):
		return decideFail
	default:
		return decideRetry
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

package service

import "sync"

// breakerState is the service-level circuit state derived from the
// rolling failure rate of executed jobs.
type breakerState int

// The values are the panorama_service_breaker_state gauge's; shedding
// is 2 so that alerts written against == 2 keep their meaning.
const (
	// breakerOK admits work normally.
	breakerOK breakerState = 0
	// breakerShed refuses new work (503 + Retry-After).
	breakerShed breakerState = 2
)

func (s breakerState) String() string {
	if s == breakerShed {
		return "shed"
	}
	return "ok"
}

// breaker tracks the outcome of the last window executions in a ring.
// Past shedAt the service sheds new work outright; it never swaps in a
// cheaper mapper, so every answer comes from the mapper its request
// named. Recovery is implicit — successes push failures out of the
// window. The breaker only judges with at least half a window of
// samples, so a single early failure can never trip it.
type breaker struct {
	mu     sync.Mutex
	ring   []bool // true = failure
	n, idx int    // samples seen (≤ len(ring)), next write slot
	fails  int
	shedAt float64
}

// newBreaker sizes the rolling window; shedAt is a failure-rate
// fraction in (0, 1]. A nil breaker (disabled) always reports
// breakerOK.
func newBreaker(window int, shedAt float64) *breaker {
	return &breaker{ring: make([]bool, window), shedAt: shedAt}
}

// record folds one terminal job outcome into the window.
func (b *breaker) record(failed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == len(b.ring) {
		if b.ring[b.idx] {
			b.fails--
		}
	} else {
		b.n++
	}
	b.ring[b.idx] = failed
	if failed {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.ring)
}

// state judges the current window.
func (b *breaker) state() breakerState {
	if b == nil {
		return breakerOK
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n < len(b.ring)/2 || b.n == 0 {
		return breakerOK
	}
	if float64(b.fails)/float64(b.n) >= b.shedAt {
		return breakerShed
	}
	return breakerOK
}

// failureRate reports the windowed failure fraction (0 with no
// samples).
func (b *breaker) failureRate() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return 0
	}
	return float64(b.fails) / float64(b.n)
}

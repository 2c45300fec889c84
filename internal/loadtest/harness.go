package loadtest

import (
	"context"
	"net/http/httptest"
	"sync"

	"panorama/internal/core"
	"panorama/internal/service"
)

// Harness is an in-process panoramad: a real service.Server behind a
// real HTTP listener, with per-fingerprint execution and completion
// accounting wrapped around its executor so soak tests can assert
// exactly-once behavior under coalescing, dedup and crash recovery.
type Harness struct {
	Srv *service.Server
	TS  *httptest.Server

	mu          sync.Mutex
	executions  map[string]int
	completions map[string]int
}

// NewHarness starts a server with the given options, wrapping its
// executor (the real pipeline, unless opts.Run overrides it) with the
// accounting hooks. Callers own shutdown via Close.
func NewHarness(opts service.Options) (*Harness, error) {
	h := &Harness{
		executions:  map[string]int{},
		completions: map[string]int{},
	}
	run := opts.Run
	if run == nil {
		run = service.Pipeline(opts.PipelineWorkers)
	}
	opts.Run = func(ctx context.Context, job *service.Job) (core.Summary, error) {
		h.mu.Lock()
		h.executions[job.Fingerprint]++
		h.mu.Unlock()
		sum, err := run(ctx, job)
		if err == nil {
			h.mu.Lock()
			h.completions[job.Fingerprint]++
			h.mu.Unlock()
		}
		return sum, err
	}
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	h.Srv = srv
	h.TS = httptest.NewServer(srv.Handler())
	return h, nil
}

// URL is the harness's base URL.
func (h *Harness) URL() string { return h.TS.URL }

// Executions snapshots the per-fingerprint execution counts.
func (h *Harness) Executions() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int, len(h.executions))
	for k, v := range h.executions {
		out[k] = v
	}
	return out
}

// Completions snapshots the per-fingerprint successful-run counts.
func (h *Harness) Completions() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int, len(h.completions))
	for k, v := range h.completions {
		out[k] = v
	}
	return out
}

// Close drains the server and tears the listener down.
func (h *Harness) Close(ctx context.Context) error {
	err := h.Srv.Shutdown(ctx)
	h.TS.Close()
	return err
}

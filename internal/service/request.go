package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
)

// Request is the POST /v1/map wire format. Exactly one of Kernel or
// DFG selects the graph; Arch names a preset unless ArchDesc carries a
// full architecture description (the same JSON the -arch-file CLI flag
// accepts).
type Request struct {
	Kernel string          `json:"kernel,omitempty"`
	Scale  float64         `json:"scale,omitempty"` // kernel scale factor, default 1.0, at most 4
	DFG    json.RawMessage `json:"dfg,omitempty"`

	Arch     string          `json:"arch,omitempty"` // preset: 4x4, 8x8, 9x9, 16x16
	ArchDesc json.RawMessage `json:"archDesc,omitempty"`

	Mapper    string `json:"mapper,omitempty"` // any name in core.MapperNames() (default pan-spr)
	Seed      int64  `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeoutMS,omitempty"` // lowers the job's Budgets.Total; 0 = server default

	// Wait makes POST /v1/map block until the job finishes (bounded by
	// the client's connection); otherwise a queued job returns 202
	// immediately.
	Wait bool `json:"wait,omitempty"`
}

// resolved is a fully-validated request: graph and architecture
// instantiated, mapper checked, budgets decided, fingerprint computed.
// graph and arch may be shared with other requests (see inputs) and are
// read-only.
type resolved struct {
	graph       *dfg.Graph
	arch        *arch.CGRA
	mapper      string
	seed        int64
	budgets     core.Budgets
	fingerprint string
	wait        bool
	origin      string // forwarding peer's URL when the job arrived via the ring
}

// resolve validates the wire request against the server defaults. The
// returned error is a client error (http 400) unless it wraps an
// internal failure.
func (s *Server) resolve(req *Request) (*resolved, error) {
	var (
		g   *dfg.Graph
		a   *arch.CGRA
		err error
	)
	switch {
	case len(req.DFG) > 0 && req.Kernel != "":
		return nil, fmt.Errorf("request has both kernel and dfg; pick one")
	case len(req.DFG) > 0:
		g = new(dfg.Graph)
		if err := json.Unmarshal(req.DFG, g); err != nil {
			return nil, fmt.Errorf("parsing dfg: %w", err)
		}
		if err := g.Freeze(); err != nil {
			return nil, err
		}
	case req.Kernel != "":
		if g, err = s.inputs.kernelGraph(req.Kernel, req.Scale); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("request needs a kernel name or an inline dfg")
	}

	switch {
	case len(req.ArchDesc) > 0:
		a, err = arch.ReadJSON(bytes.NewReader(req.ArchDesc))
	case req.Arch == "":
		a, err = s.inputs.preset("8x8")
	default:
		a, err = s.inputs.preset(req.Arch)
	}
	if err != nil {
		return nil, err
	}

	mapper := req.Mapper
	if mapper == "" {
		mapper = "pan-spr"
	}
	if err := core.CheckMapper(mapper); err != nil {
		return nil, err
	}

	// A request may lower the operator's budget, never raise it; under
	// an unbounded one, no timeoutMS past the largest Duration applies.
	budgets := s.opts.Budgets
	limit := budgets.Total
	if limit <= 0 {
		limit = math.MaxInt64
	}
	if ms := req.TimeoutMS; ms > 0 && ms < limit.Milliseconds() {
		budgets.Total = time.Duration(ms) * time.Millisecond
	}

	return &resolved{
		graph:       g,
		arch:        a,
		mapper:      mapper,
		seed:        req.Seed,
		budgets:     budgets,
		fingerprint: Key(g, a, mapper, req.Seed, budgets),
		wait:        req.Wait,
	}, nil
}

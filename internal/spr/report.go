package spr

import (
	"fmt"
	"strings"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
	"panorama/internal/verify"
)

// Report summarises the physical quality of a mapping: how far values
// travel, how long they wait, and how loaded the routing fabric is.
type Report struct {
	II int

	// Route statistics over all DFG edges.
	Edges          int
	TotalHops      int // wire traversals
	MaxHops        int
	TotalWait      int     // cycles parked in registers/bypasses
	AvgRouteCycles float64 // mean elapsed cycles per edge

	// Resource utilisation (fraction of capacity-cycles in use).
	FUUtil   float64
	WireUtil float64
	RegUtil  float64
}

// Analyze computes a Report for a valid routed mapping, whichever
// mapper produced it.
func Analyze(d *dfg.Graph, a *arch.CGRA, m *verify.Mapping) (*Report, error) {
	if err := verify.Check(d, a, m, nil); err != nil {
		return nil, fmt.Errorf("spr: analyze: %w", err)
	}
	if m.Model != verify.ModelRouted {
		return nil, fmt.Errorf("spr: analyze: a %s-model mapping has no routes to measure", m.Model)
	}
	g, err := mrrg.New(a, m.II)
	if err != nil {
		return nil, err
	}
	r := &Report{II: m.II, Edges: d.NumEdges()}

	usedWire := make(map[int32]bool)
	usedReg := make(map[int32]bool)
	totalElapsed := 0
	for _, route := range m.Routes {
		hops, wait, elapsed := 0, 0, 0
		for i := 0; i+1 < len(route); i++ {
			from, to := route[i], route[i+1]
			var adv bool
			if e, ok := g.FindEdge(from, to); ok {
				adv = e.Adv
			}
			if adv {
				elapsed++
			}
			switch g.Kinds[to] {
			case mrrg.KindLink:
				fromPE, toPE := g.LinkEnds(g.LinkOf(int(to)))
				if fromPE != toPE {
					hops++
				} else if adv {
					wait++ // bypass self-loop hold
				}
				usedWire[to] = true
			case mrrg.KindReg:
				if adv {
					wait++
				}
				usedReg[to] = true
			}
		}
		r.TotalHops += hops
		r.TotalWait += wait
		totalElapsed += elapsed
		if hops > r.MaxHops {
			r.MaxHops = hops
		}
	}
	if r.Edges > 0 {
		r.AvgRouteCycles = float64(totalElapsed) / float64(r.Edges)
	}

	r.FUUtil = float64(d.NumNodes()) / float64(a.NumPEs()*m.II)
	wires, regs := 0, 0
	for n := 0; n < g.NumNodes; n++ {
		switch g.Kinds[n] {
		case mrrg.KindLink:
			wires++
		case mrrg.KindReg:
			regs++
		}
	}
	if wires > 0 {
		r.WireUtil = float64(len(usedWire)) / float64(wires)
	}
	if regs > 0 {
		r.RegUtil = float64(len(usedReg)) / float64(regs)
	}
	return r, nil
}

// String renders the report for CLI output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routes: %d edges, %d wire hops (max %d per edge), %d park cycles, %.1f cycles/edge avg\n",
		r.Edges, r.TotalHops, r.MaxHops, r.TotalWait, r.AvgRouteCycles)
	fmt.Fprintf(&b, "utilisation: FU %.0f%%, wires %.0f%%, registers %.0f%%",
		r.FUUtil*100, r.WireUtil*100, r.RegUtil*100)
	return b.String()
}

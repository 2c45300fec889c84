// Package config lowers a compiled mapping into the per-PE
// configuration streams the CGRA's configuration memory would hold —
// the "predetermined sequence of configurations" of the paper's §1 that
// the fabric cycles through every II cycles.
//
// Each PE gets II configuration words. A word selects the FU opcode
// executed in that slot (if any), the source of each FU operand (a
// local wire, the local result register, or an RF read), the values
// driven onto each outgoing wire, and the RF write. The generator
// derives all of it from the mapping's routes, and Words are
// serialisable, so the output is effectively the bitstream of this
// CGRA model.
package config

import (
	"fmt"
	"sort"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
	"panorama/internal/verify"
)

// SourceKind says where a routed value enters a resource from.
type SourceKind uint8

// Operand / wire source kinds.
const (
	SrcNone   SourceKind = iota
	SrcWire              // an incoming wire (Link names the driving PE)
	SrcResult            // this PE's result register
	SrcRF                // a register-file read
)

// String names the source kind as the program dumps print it.
func (k SourceKind) String() string {
	switch k {
	case SrcNone:
		return "none"
	case SrcWire:
		return "wire"
	case SrcResult:
		return "res"
	case SrcRF:
		return "rf"
	}
	return fmt.Sprintf("src(%d)", uint8(k))
}

// Source selects one input of a mux.
type Source struct {
	Kind SourceKind
	From int // SrcWire: driving PE id; SrcRF: register index; else unused
}

// WireDrive configures one outgoing wire of a PE in one slot.
type WireDrive struct {
	To  int // receiving PE (== own PE for the bypass wire)
	Src Source
}

// RFWrite configures a register-file write in one slot.
type RFWrite struct {
	Reg int
	Src Source
}

// Word is one PE's configuration for one modulo slot.
type Word struct {
	Op       dfg.Op   // OpNop when the FU idles
	Node     int      // DFG node executed (-1 when idle)
	Operands []Source // FU operand sources, DFG edge order
	Wires    []WireDrive
	Writes   []RFWrite
}

// Program is the whole fabric's configuration: Words[pe][slot].
type Program struct {
	II    int
	Words [][]Word
}

// Generate lowers a legal routed mapping — from any mapper — to
// configuration words. The words are derived from the routes, so a
// crossbar-model mapping, which has none, is refused.
func Generate(d *dfg.Graph, a *arch.CGRA, m *verify.Mapping) (*Program, error) {
	if err := verify.Check(d, a, m, nil); err != nil {
		return nil, fmt.Errorf("config: refusing invalid mapping: %w", err)
	}
	if m.Model != verify.ModelRouted {
		return nil, fmt.Errorf("config: a %s-model mapping has no routes to lower", m.Model)
	}
	g, err := mrrg.New(a, m.II)
	if err != nil {
		return nil, err
	}
	p := &Program{II: m.II, Words: make([][]Word, a.NumPEs())}
	for pe := range p.Words {
		p.Words[pe] = make([]Word, m.II)
		for s := range p.Words[pe] {
			p.Words[pe][s] = Word{Op: dfg.OpNop, Node: -1}
		}
	}

	// FU ops.
	for v := range d.Nodes {
		pe, slot := m.PlacePE[v], m.PlaceT[v]%m.II
		w := &p.Words[pe][slot]
		w.Op = d.Nodes[v].Op
		w.Node = v
	}

	// Routes: walk each edge's path and translate hops into wire
	// drives, RF writes, and FU operand sources.
	for v := range d.Nodes {
		pe, slot := m.PlacePE[v], m.PlaceT[v]%m.II
		w := &p.Words[pe][slot]
		w.Operands = make([]Source, d.InDeg(v))
		for oi, ei := range d.InEdges(v) {
			src, err := lowerRoute(g, p, m.Routes[ei])
			if err != nil {
				return nil, fmt.Errorf("config: edge %d: %w", ei, err)
			}
			w.Operands[oi] = src
		}
	}
	for pe := range p.Words {
		for s := range p.Words[pe] {
			word := &p.Words[pe][s]
			sort.Slice(word.Wires, func(i, j int) bool { return word.Wires[i].To < word.Wires[j].To })
			sort.Slice(word.Writes, func(i, j int) bool { return word.Writes[i].Reg < word.Writes[j].Reg })
		}
	}
	return p, nil
}

// lowerRoute translates one route into configuration entries and
// returns the FU operand source at the consumer end.
func lowerRoute(g *mrrg.Graph, p *Program, route []int32) (Source, error) {
	// cur is the source feeding the next hop, as seen by the PE that
	// consumes it.
	var cur Source
	if len(route) == 0 {
		return cur, fmt.Errorf("empty route")
	}
	if g.Kinds[route[0]] != mrrg.KindRes {
		return cur, fmt.Errorf("route starts at %s, want a result register", g.Describe(int(route[0])))
	}
	cur = Source{Kind: SrcResult}

	for i := 0; i+1 < len(route); i++ {
		from, to := route[i], route[i+1]
		slot := int(g.TimeOf[from])
		switch g.Kinds[to] {
		case mrrg.KindLink:
			// Drive a wire: configured in the driving PE's word at the
			// wire's slot.
			fromPE, toPE := g.LinkEnds(g.LinkOf(int(to)))
			word := &p.Words[fromPE][int(g.TimeOf[to])]
			word.Wires = appendWire(word.Wires, WireDrive{To: toPE, Src: cur})
			// Downstream, the value is seen as arriving on a wire from
			// fromPE.
			cur = Source{Kind: SrcWire, From: fromPE}
		case mrrg.KindWPort:
			// The write itself is recorded when the REG node follows.
		case mrrg.KindReg:
			word := &p.Words[int(g.PEOf[to])][slot]
			word.Writes = appendWrite(word.Writes, RFWrite{Reg: int(g.RegOf[to]), Src: cur})
			cur = Source{Kind: SrcRF, From: int(g.RegOf[to])}
		case mrrg.KindRPort:
			// Reading through the port keeps the RF source.
		case mrrg.KindFU:
			// Final consume: cur is the operand source.
			return cur, nil
		case mrrg.KindRes:
			return cur, fmt.Errorf("route passes through a result register at %s", g.Describe(int(to)))
		}
	}
	return cur, fmt.Errorf("route does not end at an FU")
}

// appendWire deduplicates identical drives (fan-out of one value over
// the same wire configuration).
func appendWire(ws []WireDrive, w WireDrive) []WireDrive {
	for _, x := range ws {
		if x == w {
			return ws
		}
	}
	return append(ws, w)
}

func appendWrite(ws []RFWrite, w RFWrite) []RFWrite {
	for _, x := range ws {
		if x == w {
			return ws
		}
	}
	return append(ws, w)
}

// Stats summarises a program for reports.
type Stats struct {
	ActiveFUSlots int // FU slots executing an operation
	TotalFUSlots  int
	WireDrives    int
	RFWrites      int
}

// ComputeStats tallies configuration activity.
func (p *Program) ComputeStats() Stats {
	var s Stats
	for pe := range p.Words {
		for slot := range p.Words[pe] {
			w := &p.Words[pe][slot]
			s.TotalFUSlots++
			if w.Node >= 0 {
				s.ActiveFUSlots++
			}
			s.WireDrives += len(w.Wires)
			s.RFWrites += len(w.Writes)
		}
	}
	return s
}

// Utilisation returns the fraction of FU slots doing useful work.
func (p *Program) Utilisation() float64 {
	s := p.ComputeStats()
	if s.TotalFUSlots == 0 {
		return 0
	}
	return float64(s.ActiveFUSlots) / float64(s.TotalFUSlots)
}

// Package mrrg builds the Modulo Routing Resource Graph: the CGRA's
// compute and routing resources time-extended over II cycles (paper §3,
// following SPR/DRESC). Placement assigns DFG operations to FU nodes;
// routing claims paths through result-register, link (wire), register
// file, and port nodes.
//
// Node kinds:
//
//	FU     — executes one operation per (PE, slot)        (capacity 1)
//	RES    — PE result register at the production slot    (capacity 1)
//	LINK   — one directed wire out of a PE's switch for a
//	         cycle; each PE also has a self-loop bypass   (capacity 1)
//	REG_r  — register r of the PE's RF                    (capacity 1)
//	RPORT  — RF read port bundle               (capacity RFReadPorts)
//	WPORT  — RF write port bundle              (capacity RFWritePorts)
//
// Every PE drives all of its outgoing links independently (the switch
// in the paper's Figure 1), so distinct values can leave a PE in
// different directions in the same cycle. The interconnect remains
// single-cycle single-hop: a value on a wire must be consumed, parked
// (RF or bypass), or forwarded on a next-cycle wire.
package mrrg

import (
	"fmt"

	"panorama/internal/arch"
)

// Kind labels an MRRG node.
type Kind uint8

// Node kinds.
const (
	KindFU Kind = iota
	KindRes
	KindLink
	KindReg
	KindRPort
	KindWPort
)

// String names the node kind as Describe prints it.
func (k Kind) String() string {
	switch k {
	case KindFU:
		return "fu"
	case KindRes:
		return "res"
	case KindLink:
		return "link"
	case KindReg:
		return "reg"
	case KindRPort:
		return "rport"
	case KindWPort:
		return "wport"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Edge is a directed routing edge to node To. Adv is true when
// traversal advances time by one cycle; Express marks inter-cluster
// express-link wires (prioritised for inter-cluster DFG edges). ToFU
// caches Kinds[To] == KindFU so the router's relaxation loop can
// classify the edge without a second random memory access; it still
// fits the struct in 8 bytes.
type Edge struct {
	To      int32
	Adv     bool
	Express bool
	ToFU    bool
}

// link is a directed wire in the routing fabric: the architecture's
// links plus one self-loop bypass per PE.
type link struct {
	from, to int
	express  bool
}

// Graph is an MRRG for one (architecture, II) pair.
//
// The adjacency is stored in compressed sparse row (CSR) form: one
// preallocated edge slab indexed by per-node offsets, so the router's
// inner loop walks contiguous memory instead of chasing per-node slice
// headers. Use Succs to read a node's successor edges.
type Graph struct {
	Arch *arch.CGRA
	II   int

	NumNodes int
	Kinds    []Kind
	PEOf     []int32 // owning PE (for LINK: the driving PE)
	TimeOf   []int32 // modulo time slot
	RegOf    []int32 // register index (KindReg only, else -1)
	Cap      []int16 // node capacity

	succOff []int32 // CSR row offsets, len NumNodes+1
	succ    []Edge  // CSR edge slab, len succOff[NumNodes]

	blockSize int // uniform nodes per (pe, t) block
	regs      int
	links     []link
	linkBase  int     // first link node id
	outLinks  [][]int // per PE: indices into links
}

// Succs returns node n's successor edges as a slice of the shared CSR
// slab. The returned slice must not be modified.
func (g *Graph) Succs(n int32) []Edge { return g.succ[g.succOff[n]:g.succOff[n+1]] }

// NumEdges returns the total number of routing edges.
func (g *Graph) NumEdges() int { return len(g.succ) }

// FindEdge returns the edge from -> to, if one exists. Successor lists
// are short (bounded by the PE fan-out), so the scan is a handful of
// contiguous comparisons.
func (g *Graph) FindEdge(from, to int32) (Edge, bool) {
	for _, e := range g.Succs(from) {
		if e.To == to {
			return e, true
		}
	}
	return Edge{}, false
}

// Offsets of node kinds within a (pe, t) block.
const (
	offFU = iota
	offRes
	offRPort
	offWPort
	offReg // first register; block has regs registers
)

// New builds the MRRG for the architecture unrolled to ii cycles.
func New(a *arch.CGRA, ii int) (*Graph, error) {
	if ii <= 0 {
		return nil, fmt.Errorf("mrrg: non-positive II %d", ii)
	}
	regs := a.NumRegs
	g := &Graph{
		Arch:      a,
		II:        ii,
		blockSize: offReg + regs,
		regs:      regs,
	}

	// Routing wires: every architecture link plus a self-loop bypass.
	seen := make(map[[2]int]bool)
	for _, l := range a.Links {
		key := [2]int{l.From, l.To}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.links = append(g.links, link{from: l.From, to: l.To, express: l.InterCluster})
	}
	for pe := 0; pe < a.NumPEs(); pe++ {
		g.links = append(g.links, link{from: pe, to: pe})
	}
	g.outLinks = make([][]int, a.NumPEs())
	for i, l := range g.links {
		g.outLinks[l.from] = append(g.outLinks[l.from], i)
	}

	g.linkBase = a.NumPEs() * ii * g.blockSize
	g.NumNodes = g.linkBase + len(g.links)*ii
	g.Kinds = make([]Kind, g.NumNodes)
	g.PEOf = make([]int32, g.NumNodes)
	g.TimeOf = make([]int32, g.NumNodes)
	g.RegOf = make([]int32, g.NumNodes)
	g.Cap = make([]int16, g.NumNodes)

	for pe := 0; pe < a.NumPEs(); pe++ {
		for t := 0; t < ii; t++ {
			base := g.blockBase(pe, t)
			for off := 0; off < g.blockSize; off++ {
				id := base + off
				g.PEOf[id] = int32(pe)
				g.TimeOf[id] = int32(t)
				g.RegOf[id] = -1
				switch {
				case off == offFU:
					g.Kinds[id] = KindFU
					g.Cap[id] = 1
				case off == offRes:
					g.Kinds[id] = KindRes
					g.Cap[id] = 1
				case off == offRPort:
					g.Kinds[id] = KindRPort
					g.Cap[id] = int16(a.RFReadPorts)
				case off == offWPort:
					g.Kinds[id] = KindWPort
					g.Cap[id] = int16(a.RFWritePorts)
				default:
					g.Kinds[id] = KindReg
					g.Cap[id] = 1
					g.RegOf[id] = int32(off - offReg)
				}
			}
		}
	}
	for li, l := range g.links {
		for t := 0; t < ii; t++ {
			id := g.LinkNode(li, t)
			g.Kinds[id] = KindLink
			g.PEOf[id] = int32(l.from)
			g.TimeOf[id] = int32(t)
			g.RegOf[id] = -1
			g.Cap[id] = 1
		}
	}
	g.buildEdges()
	return g, nil
}

func (g *Graph) blockBase(pe, t int) int {
	return (pe*g.II + t) * g.blockSize
}

// FUNode returns the FU node id for (pe, t mod II).
func (g *Graph) FUNode(pe, t int) int { return g.blockBase(pe, mod(t, g.II)) + offFU }

// ResNode returns the result-register node id for (pe, t mod II).
func (g *Graph) ResNode(pe, t int) int { return g.blockBase(pe, mod(t, g.II)) + offRes }

// RegNode returns the id of register r of pe at t mod II.
func (g *Graph) RegNode(pe, r, t int) int { return g.blockBase(pe, mod(t, g.II)) + offReg + r }

// RPortNode returns the RF read-port node for (pe, t mod II).
func (g *Graph) RPortNode(pe, t int) int { return g.blockBase(pe, mod(t, g.II)) + offRPort }

// WPortNode returns the RF write-port node for (pe, t mod II).
func (g *Graph) WPortNode(pe, t int) int { return g.blockBase(pe, mod(t, g.II)) + offWPort }

// LinkNode returns the node id of wire li at t mod II.
func (g *Graph) LinkNode(li, t int) int { return g.linkBase + li*g.II + mod(t, g.II) }

// LinkOf inverts LinkNode: the wire index of a KindLink node, or -1 for
// any other node.
func (g *Graph) LinkOf(node int) int {
	if node < g.linkBase {
		return -1
	}
	return (node - g.linkBase) / g.II
}

// NumLinks returns the number of directed wires (including bypasses).
func (g *Graph) NumLinks() int { return len(g.links) }

// LinkEnds returns the driving and receiving PE of wire li.
func (g *Graph) LinkEnds(li int) (from, to int) { return g.links[li].from, g.links[li].to }

// buildEdges fills the CSR adjacency in two passes over the same
// deterministic edge generator: count per-node degrees, prefix-sum
// them into row offsets, then fill the preallocated slab. Per-node
// edge order matches the generator's emission order exactly.
func (g *Graph) buildEdges() {
	g.succOff = make([]int32, g.NumNodes+1)
	g.forEachEdge(func(from, to int, adv, expr bool) {
		g.succOff[from+1]++
	})
	for n := 0; n < g.NumNodes; n++ {
		g.succOff[n+1] += g.succOff[n]
	}
	g.succ = make([]Edge, g.succOff[g.NumNodes])
	cursor := make([]int32, g.NumNodes)
	copy(cursor, g.succOff[:g.NumNodes])
	g.forEachEdge(func(from, to int, adv, expr bool) {
		g.succ[cursor[from]] = Edge{To: int32(to), Adv: adv, Express: expr, ToFU: g.Kinds[to] == KindFU}
		cursor[from]++
	})
}

// forEachEdge emits every routing edge of the time-extended graph in a
// fixed deterministic order (the order buildEdges stores them).
func (g *Graph) forEachEdge(add func(from, to int, adv, expr bool)) {
	ii := g.II
	for pe := 0; pe < g.Arch.NumPEs(); pe++ {
		for t := 0; t < ii; t++ {
			res := g.ResNode(pe, t)
			// Consume into own FU in the production cycle.
			add(res, g.FUNode(pe, t), false, false)
			// Store to the local RF.
			add(res, g.WPortNode(pe, t), false, false)
			// Drive any outgoing wire in the production cycle.
			for _, li := range g.outLinks[pe] {
				add(res, g.LinkNode(li, t), false, g.links[li].express)
			}
			// RF plumbing.
			next := mod(t+1, ii)
			for r := 0; r < g.regs; r++ {
				add(g.WPortNode(pe, t), g.RegNode(pe, r, next), true, false)
				add(g.RegNode(pe, r, t), g.RegNode(pe, r, next), true, false)
				add(g.RegNode(pe, r, t), g.RPortNode(pe, t), false, false)
			}
			// A read feeds the local FU or drives a wire, same cycle.
			add(g.RPortNode(pe, t), g.FUNode(pe, t), false, false)
			for _, li := range g.outLinks[pe] {
				add(g.RPortNode(pe, t), g.LinkNode(li, t), false, g.links[li].express)
			}
		}
	}
	for li, l := range g.links {
		for t := 0; t < ii; t++ {
			wire := g.LinkNode(li, t)
			next := mod(t+1, ii)
			// Consume at the receiving PE in the same cycle.
			add(wire, g.FUNode(l.to, t), false, false)
			// Latch into the receiving PE's RF.
			add(wire, g.WPortNode(l.to, t), false, false)
			// Forward on any wire out of the receiving PE next cycle
			// (including its bypass self-loop).
			for _, lj := range g.outLinks[l.to] {
				add(wire, g.LinkNode(lj, next), true, g.links[lj].express)
			}
		}
	}
}

// NumFUs returns the number of FU nodes (PEs * II).
func (g *Graph) NumFUs() int { return g.Arch.NumPEs() * g.II }

// Describe returns a human-readable label for a node id.
func (g *Graph) Describe(id int) string {
	t := g.TimeOf[id]
	switch g.Kinds[id] {
	case KindReg:
		return fmt.Sprintf("reg%d(pe%d,t%d)", g.RegOf[id], g.PEOf[id], t)
	case KindLink:
		from, to := g.LinkEnds(g.LinkOf(id))
		return fmt.Sprintf("link(pe%d->pe%d,t%d)", from, to, t)
	default:
		return fmt.Sprintf("%s(pe%d,t%d)", g.Kinds[id], g.PEOf[id], t)
	}
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

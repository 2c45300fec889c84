package verify

import (
	"fmt"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
)

// Model selects which hardware model a mapping is checked against.
type Model int

// Mapping models.
const (
	// ModelRouted is the SPR* MRRG model: explicit routes, single-cycle
	// single-hop interconnect, finite register files.
	ModelRouted Model = iota
	// ModelCrossbar is the UltraFast* model: single-cycle multi-hop
	// interconnect, unlimited registers, crossbar bandwidth only.
	ModelCrossbar
)

// String names the routing model for reports and error text.
func (m Model) String() string {
	switch m {
	case ModelRouted:
		return "routed"
	case ModelCrossbar:
		return "crossbar"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// DefaultCrossbarCap is the per-PE per-cycle forwarding capacity
// assumed when a crossbar mapping does not carry its own (the four
// mesh output ports of a HyCUBE PE).
const DefaultCrossbarCap = 4

// Mapping is a complete mapping of a DFG at one II: the one form every
// mapper returns and everything downstream (Check, sim, config, viz)
// consumes.
type Mapping struct {
	Model   Model
	II      int
	PlacePE []int // DFG node -> PE id
	PlaceT  []int // DFG node -> absolute schedule cycle

	// Routes is the per-DFG-edge MRRG path (source result register ..
	// consumer FU). ModelRouted only.
	Routes [][]int32

	// CrossbarCap is the per-PE per-cycle forwarding capacity the
	// mapping was placed under. ModelCrossbar only; 0 means
	// DefaultCrossbarCap.
	CrossbarCap int
}

// Error is a legality violation, tagged with the constraint family
// that detected it so tests can assert which rule tripped.
type Error struct {
	Constraint string // "shape", "placement", "guidance", "exclusivity", "timing", "route", "capacity", "bandwidth"
	Detail     string
}

// Error renders the violated constraint and its detail.
func (e *Error) Error() string { return "verify: " + e.Constraint + ": " + e.Detail }

func errf(constraint, format string, args ...any) error {
	return &Error{Constraint: constraint, Detail: fmt.Sprintf(format, args...)}
}

// Check verifies a mapping against the full legality specification.
// allowed is the Panorama cluster-guidance restriction (nil, or a nil
// entry, means unrestricted). A nil error means the mapping is legal.
func Check(d *dfg.Graph, a *arch.CGRA, m *Mapping, allowed [][]int) error {
	if m == nil {
		return errf("shape", "nil mapping")
	}
	if err := d.Freeze(); err != nil {
		return err
	}
	if m.II < 1 {
		return errf("shape", "non-positive II %d", m.II)
	}
	n := d.NumNodes()
	if len(m.PlacePE) != n || len(m.PlaceT) != n {
		return errf("shape", "placement arrays have %d/%d entries for %d nodes",
			len(m.PlacePE), len(m.PlaceT), n)
	}
	if allowed != nil && len(allowed) != n {
		return errf("shape", "allowed-cluster restriction has %d entries for %d nodes", len(allowed), n)
	}

	if err := checkPlacement(d, a, m, allowed); err != nil {
		return err
	}
	if err := checkExclusivity(a, m); err != nil {
		return err
	}
	if err := checkTiming(d, m); err != nil {
		return err
	}
	switch m.Model {
	case ModelRouted:
		return checkRoutes(d, a, m)
	case ModelCrossbar:
		return checkBandwidth(d, a, m)
	}
	return errf("shape", "unknown mapping model %d", int(m.Model))
}

// checkPlacement verifies per-node constraints: a real PE, a
// non-negative cycle, memory capability, and cluster-guidance
// containment.
func checkPlacement(d *dfg.Graph, a *arch.CGRA, m *Mapping, allowed [][]int) error {
	for v := 0; v < d.NumNodes(); v++ {
		pe, t := m.PlacePE[v], m.PlaceT[v]
		if pe < 0 || pe >= a.NumPEs() {
			return errf("placement", "node %d on invalid PE %d (fabric has %d)", v, pe, a.NumPEs())
		}
		if t < 0 {
			return errf("placement", "node %d scheduled at negative cycle %d", v, t)
		}
		if d.Nodes[v].Op.IsMem() && !a.PEs[pe].MemCapable {
			return errf("placement", "memory op %d (%s) on non-memory PE %d", v, d.Nodes[v].Op, pe)
		}
		if allowed != nil && allowed[v] != nil {
			cid := a.ClusterOf(pe)
			ok := false
			for _, c := range allowed[v] {
				if c == cid {
					ok = true
					break
				}
			}
			if !ok {
				return errf("guidance", "node %d on PE %d (cluster %d) outside its allowed clusters %v",
					v, pe, cid, allowed[v])
			}
		}
	}
	return nil
}

// checkExclusivity verifies that no two operations share one modulo FU
// slot: a PE's functional unit executes at most one operation per II
// cycle.
func checkExclusivity(a *arch.CGRA, m *Mapping) error {
	seen := make(map[[2]int]int, len(m.PlacePE))
	for v, pe := range m.PlacePE {
		slot := [2]int{pe, m.PlaceT[v] % m.II}
		if prev, dup := seen[slot]; dup {
			return errf("exclusivity", "nodes %d and %d share FU slot (pe %d, slot %d) at II=%d",
				prev, v, pe, slot[1], m.II)
		}
		seen[slot] = v
	}
	return nil
}

// checkTiming verifies the modulo-schedule dependence constraint for
// every edge, recurrence edges included: the consumer of iteration i
// issues at PlaceT[to] + i*II and the producing value of iteration
// i - Dist is available at PlaceT[from] + (i-Dist)*II + latency, so
// legality requires PlaceT[to] + Dist*II >= PlaceT[from] + latency.
func checkTiming(d *dfg.Graph, m *Mapping) error {
	for _, e := range d.Edges {
		avail := m.PlaceT[e.From] + d.Nodes[e.From].Op.Latency()
		need := m.PlaceT[e.To] + e.Dist*m.II
		if need < avail {
			return errf("timing", "edge %d->%d (dist %d): consumed at cycle %d, available at %d (II=%d)",
				e.From, e.To, e.Dist, need, avail, m.II)
		}
	}
	return nil
}

// checkRoutes verifies the ModelRouted constraints: every DFG edge has
// a route that is a real MRRG path from the producer's result register
// to the consumer's FU, with elapsed cycles exactly matching the
// schedule, never revisiting a node (a revisit means the value holds a
// modulo resource across a full II wrap and collides with its own next
// iteration), and with no routing resource carrying more distinct
// value streams than its capacity.
//
// Capacity accounting: a resource instance carries one stream per
// (producing node, elapsed-phase) pair — fan-out routes of one value
// share resources for free at the same phase, but the same value at
// two phases is two different iterations' data live at once.
func checkRoutes(d *dfg.Graph, a *arch.CGRA, m *Mapping) error {
	g, err := mrrg.New(a, m.II)
	if err != nil {
		return err
	}
	if len(m.Routes) != d.NumEdges() {
		return errf("shape", "%d routes for %d edges", len(m.Routes), d.NumEdges())
	}

	type stream struct {
		src   int // producing DFG node
		phase int // cycles since production
	}
	occupants := make(map[int]map[stream]bool) // MRRG node -> live streams
	claim := func(node int, s stream) {
		set := occupants[node]
		if set == nil {
			set = make(map[stream]bool)
			occupants[node] = set
		}
		set[s] = true
	}

	for ei, e := range d.Edges {
		route := m.Routes[ei]
		if len(route) == 0 {
			return errf("route", "edge %d->%d has no route", e.From, e.To)
		}
		depart := m.PlaceT[e.From] + d.Nodes[e.From].Op.Latency()
		need := m.PlaceT[e.To] + e.Dist*m.II - depart
		if need < 0 {
			return errf("timing", "edge %d->%d needs negative transit %d", e.From, e.To, need)
		}
		if want := g.ResNode(m.PlacePE[e.From], depart); int(route[0]) != want {
			return errf("route", "edge %d->%d starts at %s, want producer result register %s",
				e.From, e.To, g.Describe(int(route[0])), g.Describe(want))
		}
		if want := g.FUNode(m.PlacePE[e.To], m.PlaceT[e.To]); int(route[len(route)-1]) != want {
			return errf("route", "edge %d->%d ends at %s, want consumer FU %s",
				e.From, e.To, g.Describe(int(route[len(route)-1])), g.Describe(want))
		}

		visited := make(map[int32]bool, len(route))
		visited[route[0]] = true
		claim(int(route[0]), stream{src: e.From, phase: 0})
		elapsed := 0
		for i := 0; i+1 < len(route); i++ {
			from, to := route[i], route[i+1]
			hop, ok := g.FindEdge(from, to)
			if !ok {
				return errf("route", "edge %d->%d uses non-existent MRRG hop %s -> %s",
					e.From, e.To, g.Describe(int(from)), g.Describe(int(to)))
			}
			if hop.Adv {
				elapsed++
			}
			if visited[to] {
				return errf("route", "edge %d->%d revisits %s (value would wrap onto its own next iteration)",
					e.From, e.To, g.Describe(int(to)))
			}
			visited[to] = true
			if g.Kinds[to] != mrrg.KindFU { // consumer FU input pins are per-operand, not shared
				claim(int(to), stream{src: e.From, phase: elapsed})
			}
		}
		if elapsed != need {
			return errf("route", "edge %d->%d route takes %d cycles, schedule needs %d",
				e.From, e.To, elapsed, need)
		}
	}

	for node, streams := range occupants {
		if g.Kinds[node] == mrrg.KindFU {
			continue
		}
		if len(streams) > int(g.Cap[node]) {
			return errf("capacity", "resource %s carries %d value streams, capacity %d",
				g.Describe(node), len(streams), g.Cap[node])
		}
	}
	return nil
}

// checkBandwidth verifies the ModelCrossbar constraint: every inter-PE
// transfer crosses the fabric along the H-then-V Manhattan path in the
// consumer's issue cycle, spending one forwarding slot in every PE it
// leaves (producer included, destination excluded); no PE may forward
// more values in one modulo cycle than its crossbar capacity.
// Same-node and same-PE transfers are local register reads and free.
func checkBandwidth(d *dfg.Graph, a *arch.CGRA, m *Mapping) error {
	capPerPE := m.CrossbarCap
	if capPerPE <= 0 {
		capPerPE = DefaultCrossbarCap
	}
	use := make(map[[2]int]int) // (pe, modulo slot) -> forwarding slots spent
	for _, e := range d.Edges {
		if e.From == e.To {
			continue
		}
		src, dst := m.PlacePE[e.From], m.PlacePE[e.To]
		if src == dst {
			continue
		}
		slot := m.PlaceT[e.To] % m.II
		r, c := a.PEs[src].Row, a.PEs[src].Col
		dr, dc := a.PEs[dst].Row, a.PEs[dst].Col
		for c != dc {
			use[[2]int{a.PEAt(r, c), slot}]++
			if dc > c {
				c++
			} else {
				c--
			}
		}
		for r != dr {
			use[[2]int{a.PEAt(r, c), slot}]++
			if dr > r {
				r++
			} else {
				r--
			}
		}
	}
	for key, used := range use {
		if used > capPerPE {
			return errf("bandwidth", "PE %d forwards %d values in modulo slot %d, crossbar capacity %d",
				key[0], used, key[1], capPerPE)
		}
	}
	return nil
}

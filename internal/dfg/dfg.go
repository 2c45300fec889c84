// Package dfg defines the dataflow graph (DFG) representation used by
// every layer of the Panorama compiler stack.
//
// A DFG models one loop body: nodes are operations, edges are data
// dependencies. An edge with Dist > 0 is an inter-iteration (recurrence)
// dependency carried across Dist loop iterations; the graph restricted
// to Dist == 0 edges must be acyclic.
package dfg

import (
	"fmt"
	"sort"
)

// Op enumerates the operation kinds a DFG node can carry.
type Op int

// Operation kinds. OpConst nodes model loop-invariant inputs
// (coefficients, immediates) that are materialised inside the fabric.
const (
	OpNop Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpCmp
	OpSelect
	OpLoad
	OpStore
	OpConst
	OpPhi
)

var opNames = [...]string{
	OpNop:    "nop",
	OpAdd:    "add",
	OpSub:    "sub",
	OpMul:    "mul",
	OpDiv:    "div",
	OpShl:    "shl",
	OpShr:    "shr",
	OpAnd:    "and",
	OpOr:     "or",
	OpXor:    "xor",
	OpCmp:    "cmp",
	OpSelect: "select",
	OpLoad:   "load",
	OpStore:  "store",
	OpConst:  "const",
	OpPhi:    "phi",
}

// String returns the lower-case mnemonic of the operation.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// IsMem reports whether the operation accesses the shared memory banks
// and therefore must be placed on a memory-capable PE.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// Latency returns the operation latency in cycles. The evaluated CGRA
// executes every ALU operation in a single cycle; memory operations
// take two (issue + data return), matching a banked scratchpad.
func (o Op) Latency() int {
	if o.IsMem() {
		return 2
	}
	return 1
}

// Node is a single DFG operation.
type Node struct {
	ID   int    `json:"id"`
	Op   Op     `json:"op"`
	Name string `json:"name,omitempty"`
}

// Edge is a data dependency between two operations. Dist is the
// inter-iteration distance: 0 for an intra-iteration dependency,
// d > 0 when the value produced in iteration i is consumed in
// iteration i+d.
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
	Dist int `json:"dist,omitempty"`
}

// Graph is a loop-body dataflow graph.
//
// The zero value is an empty graph ready for AddNode/AddEdge. Analysis
// accessors (Succs, TopoOrder, ...) build internal caches on first use;
// mutating the graph afterwards invalidates them, so callers should
// finish construction before analysis (Freeze makes this explicit).
//
// A frozen graph is immutable and safe for concurrent use: the service
// hands one *Graph to every job that names the same kernel and scale,
// and the mappers read it from several goroutines at once. Nothing may
// write to Nodes, Edges or a slice an accessor returned after Freeze —
// a caller that needs to reorder or extend one copies it first.
type Graph struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`

	frozen bool
	fp     string  // Fingerprint(), computed by Freeze
	succs  [][]int // successor node ids over all edges
	preds  [][]int // predecessor node ids over all edges
	outIdx [][]int // outgoing edge indices over all edges, ascending
	inIdx  [][]int // incoming edge indices over all edges, ascending
}

// New returns an empty named graph.
func New(name string) *Graph { return &Graph{Name: name} }

// AddNode appends an operation and returns its id.
func (g *Graph) AddNode(op Op, name string) int {
	if g.frozen {
		panic("dfg: AddNode on frozen graph")
	}
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Op: op, Name: name})
	return id
}

// AddEdge appends an intra-iteration dependency from -> to.
func (g *Graph) AddEdge(from, to int) { g.AddEdgeDist(from, to, 0) }

// AddEdgeDist appends a dependency with inter-iteration distance dist.
func (g *Graph) AddEdgeDist(from, to, dist int) {
	if g.frozen {
		panic("dfg: AddEdge on frozen graph")
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Dist: dist})
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Freeze validates the graph, builds the analysis caches and computes
// the fingerprint. It is idempotent; analysis accessors call it
// implicitly. Freeze itself is not safe for concurrent use: freeze a
// graph before sharing it.
func (g *Graph) Freeze() error {
	if g.frozen {
		return nil
	}
	if err := g.Validate(); err != nil {
		return err
	}
	n := len(g.Nodes)
	g.succs = make([][]int, n)
	g.preds = make([][]int, n)
	g.outIdx = make([][]int, n)
	g.inIdx = make([][]int, n)
	for i, e := range g.Edges {
		g.succs[e.From] = append(g.succs[e.From], e.To)
		g.preds[e.To] = append(g.preds[e.To], e.From)
		g.outIdx[e.From] = append(g.outIdx[e.From], i)
		g.inIdx[e.To] = append(g.inIdx[e.To], i)
	}
	g.fp = g.fingerprint()
	g.frozen = true
	return nil
}

// MustFreeze is Freeze but panics on error; for use with generated
// graphs that are correct by construction.
func (g *Graph) MustFreeze() {
	if err := g.Freeze(); err != nil {
		panic(err)
	}
}

func (g *Graph) ensureFrozen() {
	if !g.frozen {
		g.MustFreeze()
	}
}

// Validate checks structural invariants: node ids are dense and
// ordered, edge endpoints exist, no duplicate edges, no Dist==0
// self-loops, and the Dist==0 subgraph is acyclic.
func (g *Graph) Validate() error {
	for i, nd := range g.Nodes {
		if nd.ID != i {
			return fmt.Errorf("dfg %q: node %d has id %d (ids must be dense)", g.Name, i, nd.ID)
		}
	}
	n := len(g.Nodes)
	seen := make(map[[3]int]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("dfg %q: edge %d->%d out of range (n=%d)", g.Name, e.From, e.To, n)
		}
		if e.Dist < 0 {
			return fmt.Errorf("dfg %q: edge %d->%d has negative distance %d", g.Name, e.From, e.To, e.Dist)
		}
		if e.From == e.To && e.Dist == 0 {
			return fmt.Errorf("dfg %q: intra-iteration self loop on node %d", g.Name, e.From)
		}
		key := [3]int{e.From, e.To, e.Dist}
		if seen[key] {
			return fmt.Errorf("dfg %q: duplicate edge %d->%d dist %d", g.Name, e.From, e.To, e.Dist)
		}
		seen[key] = true
	}
	if _, err := g.topoOrderForward(); err != nil {
		return err
	}
	return nil
}

// topoOrderForward computes a topological order over Dist==0 edges
// without requiring the caches.
func (g *Graph) topoOrderForward() ([]int, error) {
	n := len(g.Nodes)
	indeg := make([]int, n)
	out := make([][]int, n)
	for _, e := range g.Edges {
		if e.Dist != 0 {
			continue
		}
		indeg[e.To]++
		out[e.From] = append(out[e.From], e.To)
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dfg %q: intra-iteration dependency cycle", g.Name)
	}
	return order, nil
}

// Succs returns the successor node ids of v over all edges (including
// recurrence edges). The returned slice must not be modified.
func (g *Graph) Succs(v int) []int { g.ensureFrozen(); return g.succs[v] }

// Preds returns the predecessor node ids of v over all edges. The
// returned slice must not be modified.
func (g *Graph) Preds(v int) []int { g.ensureFrozen(); return g.preds[v] }

// OutEdges returns the indices into Edges of v's outgoing edges (all
// distances), ascending. The returned slice must not be modified.
func (g *Graph) OutEdges(v int) []int { g.ensureFrozen(); return g.outIdx[v] }

// InEdges returns the indices into Edges of v's incoming edges (all
// distances), ascending — the operand order of v. The returned slice
// must not be modified.
func (g *Graph) InEdges(v int) []int { g.ensureFrozen(); return g.inIdx[v] }

// OutDeg returns the number of outgoing edges of v (all distances).
func (g *Graph) OutDeg(v int) int { g.ensureFrozen(); return len(g.succs[v]) }

// InDeg returns the number of incoming edges of v (all distances).
func (g *Graph) InDeg(v int) int { g.ensureFrozen(); return len(g.preds[v]) }

// Degree returns InDeg(v)+OutDeg(v).
func (g *Graph) Degree(v int) int { return g.InDeg(v) + g.OutDeg(v) }

// MaxDegree returns the maximum total degree over all nodes; 0 for an
// empty graph.
func (g *Graph) MaxDegree() int {
	g.ensureFrozen()
	max := 0
	for v := range g.Nodes {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// TopoOrder returns a topological order of the Dist==0 subgraph.
func (g *Graph) TopoOrder() []int {
	g.ensureFrozen()
	order, err := g.topoOrderForward()
	if err != nil {
		panic(err) // unreachable: Freeze validated acyclicity
	}
	return order
}

// ASAP returns the as-soon-as-possible schedule level of every node
// over Dist==0 edges, using operation latencies. Roots are at level 0.
func (g *Graph) ASAP() []int {
	g.ensureFrozen()
	lv := make([]int, len(g.Nodes))
	for _, v := range g.TopoOrder() {
		for _, ei := range g.outIdx[v] {
			e := g.Edges[ei]
			if e.Dist != 0 {
				continue
			}
			if t := lv[v] + g.Nodes[v].Op.Latency(); t > lv[e.To] {
				lv[e.To] = t
			}
		}
	}
	return lv
}

// ALAP returns the as-late-as-possible level of every node, aligned so
// that the critical path ends at CriticalPathLength().
func (g *Graph) ALAP() []int {
	g.ensureFrozen()
	cp := g.CriticalPathLength()
	lv := make([]int, len(g.Nodes))
	for i := range lv {
		lv[i] = cp
	}
	order := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, ei := range g.outIdx[v] {
			e := g.Edges[ei]
			if e.Dist != 0 {
				continue
			}
			if t := lv[e.To] - g.Nodes[v].Op.Latency(); t < lv[v] {
				lv[v] = t
			}
		}
	}
	return lv
}

// CriticalPathLength returns the length (sum of latencies along the
// longest Dist==0 path, measured at the start of the last node) of the
// critical path.
func (g *Graph) CriticalPathLength() int {
	asap := g.ASAP()
	max := 0
	for _, t := range asap {
		if t > max {
			max = t
		}
	}
	return max
}

// RecMII returns the recurrence-constrained minimum initiation
// interval: the smallest II such that no dependence cycle has total
// latency exceeding II times its total distance. Graphs without
// recurrence edges have RecMII 1.
//
// For a candidate II, a cycle with sum(latency) - II*sum(dist) > 0 is
// infeasible; such a positive cycle is detected with Bellman-Ford on
// edge weights latency(from) - II*dist.
func (g *Graph) RecMII() int {
	g.ensureFrozen()
	hasBack := false
	maxLat := 1
	for _, e := range g.Edges {
		if e.Dist > 0 {
			hasBack = true
		}
	}
	for _, nd := range g.Nodes {
		if l := nd.Op.Latency(); l > maxLat {
			maxLat = l
		}
	}
	if !hasBack {
		return 1
	}
	// Upper bound: a simple cycle visits each node at most once, so its
	// total latency is at most n*maxLat and its distance at least 1.
	hi := len(g.Nodes)*maxLat + 1
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.hasPositiveCycle(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasPositiveCycle reports whether a dependence cycle with
// sum(latency) > ii*sum(dist) exists (Bellman-Ford longest-path
// relaxation with early exit).
func (g *Graph) hasPositiveCycle(ii int) bool {
	n := len(g.Nodes)
	dist := make([]int, n) // longest distances from a virtual source
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.Edges {
			w := g.Nodes[e.From].Op.Latency() - ii*e.Dist
			if d := dist[e.From] + w; d > dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// UndirectedNeighbors returns, for every node, the sorted unique set of
// nodes adjacent over any edge direction (used as the similarity graph
// for spectral clustering).
func (g *Graph) UndirectedNeighbors() [][]int {
	g.ensureFrozen()
	n := len(g.Nodes)
	sets := make([]map[int]bool, n)
	for i := range sets {
		sets[i] = make(map[int]bool)
	}
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		sets[e.From][e.To] = true
		sets[e.To][e.From] = true
	}
	adj := make([][]int, n)
	for i, s := range sets {
		adj[i] = make([]int, 0, len(s))
		for v := range s {
			adj[i] = append(adj[i], v)
		}
		sort.Ints(adj[i])
	}
	return adj
}

// ConnectedComponents returns the undirected connected components as a
// per-node component id slice and the component count.
func (g *Graph) ConnectedComponents() ([]int, int) {
	adj := g.UndirectedNeighbors()
	n := len(g.Nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	var stack []int
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		stack = append(stack[:0], s)
		comp[s] = c
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if comp[w] == -1 {
					comp[w] = c
					stack = append(stack, w)
				}
			}
		}
		c++
	}
	return comp, c
}

// Stats summarises a graph for reporting.
type Stats struct {
	Name      string
	Nodes     int
	Edges     int
	BackEdges int
	MaxDegree int
	MemOps    int
	RecMII    int
}

// ComputeStats returns summary statistics of the graph.
func (g *Graph) ComputeStats() Stats {
	g.ensureFrozen()
	s := Stats{
		Name:      g.Name,
		Nodes:     len(g.Nodes),
		Edges:     len(g.Edges),
		MaxDegree: g.MaxDegree(),
		RecMII:    g.RecMII(),
	}
	for _, e := range g.Edges {
		if e.Dist > 0 {
			s.BackEdges++
		}
	}
	for _, nd := range g.Nodes {
		if nd.Op.IsMem() {
			s.MemOps++
		}
	}
	return s
}

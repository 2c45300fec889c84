// Package arch models the target CGRA: a 2-D array of processing
// elements (PEs) organised into a grid of clusters, with
// neighbour-to-neighbour links, a small number of express inter-cluster
// links, per-PE register files, and memory-capable PEs in the left-most
// column of every cluster.
//
// The model follows the architecture evaluated in the PANORAMA paper
// (DAC'22): each PE has one functional unit, a register file with eight
// registers and four read/write ports, single-cycle single-hop
// neighbour connections, and six inter-cluster links between each pair
// of adjacent clusters.
package arch

import (
	"fmt"

	"panorama/internal/dfg"
)

// PE is one processing element.
type PE struct {
	ID         int
	Row, Col   int
	MemCapable bool // can execute load/store (has a memory-bank port)
}

// Link is a directed single-cycle connection between two PEs.
type Link struct {
	From, To     int
	InterCluster bool // express link crossing a cluster boundary
}

// Config captures the tunable parameters of a CGRA instance.
type Config struct {
	Name        string
	Rows, Cols  int // PE grid dimensions
	ClusterRows int // cluster grid dimensions (R in the paper)
	ClusterCols int // (C in the paper)

	NumRegs           int // registers per PE register file
	RFReadPorts       int // register-file read ports per cycle
	RFWritePorts      int // register-file write ports per cycle
	InterClusterLinks int // express links per adjacent cluster pair
}

// CGRA is an instantiated architecture. Construct with New or a preset;
// the struct is immutable after construction and safe for concurrent
// use — the service hands one *CGRA per preset to every job. Nothing may
// write to PEs, Links or a slice an accessor returned (Neighbors,
// PEsInCluster, MemPEs): a caller that sorts or extends one copies it
// first.
type CGRA struct {
	Config
	PEs   []PE
	Links []Link

	peClusterRows int // PE rows per cluster
	peClusterCols int // PE cols per cluster
	neighbors     [][]int
	clusterPEs    [][]int
	memPEs        []int
	minElapsed    []uint8 // p*NumPEs+q -> MinElapsed(p, q)
}

// Unreachable is MinElapsed of a PE pair with no directed link path.
const Unreachable = 255

// New builds a CGRA from a configuration. The PE grid must divide
// evenly into the cluster grid.
func New(cfg Config) (*CGRA, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("arch: non-positive PE grid %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.ClusterRows <= 0 || cfg.ClusterCols <= 0 {
		return nil, fmt.Errorf("arch: non-positive cluster grid %dx%d", cfg.ClusterRows, cfg.ClusterCols)
	}
	if cfg.Rows%cfg.ClusterRows != 0 || cfg.Cols%cfg.ClusterCols != 0 {
		return nil, fmt.Errorf("arch: PE grid %dx%d not divisible by cluster grid %dx%d",
			cfg.Rows, cfg.Cols, cfg.ClusterRows, cfg.ClusterCols)
	}
	if cfg.NumRegs <= 0 {
		cfg.NumRegs = 8
	}
	if cfg.RFReadPorts <= 0 {
		cfg.RFReadPorts = 4
	}
	if cfg.RFWritePorts <= 0 {
		cfg.RFWritePorts = 4
	}
	if cfg.InterClusterLinks < 0 {
		return nil, fmt.Errorf("arch: negative inter-cluster link count")
	}

	g := &CGRA{
		Config:        cfg,
		peClusterRows: cfg.Rows / cfg.ClusterRows,
		peClusterCols: cfg.Cols / cfg.ClusterCols,
	}
	n := cfg.Rows * cfg.Cols
	g.PEs = make([]PE, n)
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			id := r*cfg.Cols + c
			// The left-most PE column of each cluster reaches the
			// cluster's memory bank.
			mem := c%g.peClusterCols == 0
			g.PEs[id] = PE{ID: id, Row: r, Col: c, MemCapable: mem}
		}
	}

	// Mesh neighbour links (single-cycle single-hop, both directions).
	addBoth := func(a, b int, inter bool) {
		g.Links = append(g.Links, Link{From: a, To: b, InterCluster: inter})
		g.Links = append(g.Links, Link{From: b, To: a, InterCluster: inter})
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			id := r*cfg.Cols + c
			if c+1 < cfg.Cols {
				addBoth(id, id+1, false)
			}
			if r+1 < cfg.Rows {
				addBoth(id, id+cfg.Cols, false)
			}
		}
	}

	// Express inter-cluster links: for each pair of adjacent clusters,
	// InterClusterLinks extra connections between interior PEs, spread
	// over the border rows/columns round-robin and one PE in from the
	// boundary so they bypass the congested border column.
	g.addInterClusterLinks(addBoth)

	g.buildIndexes()
	return g, nil
}

func (g *CGRA) addInterClusterLinks(addBoth func(a, b int, inter bool)) {
	if g.InterClusterLinks == 0 {
		return
	}
	inner := func(v, span int) int {
		// one step inside the cluster when the cluster is big enough
		if span >= 2 {
			return 1
		}
		_ = v
		return 0
	}
	for cr := 0; cr < g.ClusterRows; cr++ {
		for cc := 0; cc < g.ClusterCols; cc++ {
			// horizontal neighbour cluster
			if cc+1 < g.ClusterCols {
				for k := 0; k < g.InterClusterLinks; k++ {
					r := cr*g.peClusterRows + k%g.peClusterRows
					lc := cc*g.peClusterCols + g.peClusterCols - 1 - inner(k, g.peClusterCols)
					rc := (cc+1)*g.peClusterCols + inner(k, g.peClusterCols)
					addBoth(r*g.Cols+lc, r*g.Cols+rc, true)
				}
			}
			// vertical neighbour cluster
			if cr+1 < g.ClusterRows {
				for k := 0; k < g.InterClusterLinks; k++ {
					c := cc*g.peClusterCols + k%g.peClusterCols
					tr := cr*g.peClusterRows + g.peClusterRows - 1 - inner(k, g.peClusterRows)
					br := (cr+1)*g.peClusterRows + inner(k, g.peClusterRows)
					addBoth(tr*g.Cols+c, br*g.Cols+c, true)
				}
			}
		}
	}
}

func (g *CGRA) buildIndexes() {
	n := len(g.PEs)
	g.neighbors = make([][]int, n)
	seen := make(map[[2]int]bool)
	for _, l := range g.Links {
		key := [2]int{l.From, l.To}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.neighbors[l.From] = append(g.neighbors[l.From], l.To)
	}
	g.clusterPEs = make([][]int, g.NumClusters())
	for _, pe := range g.PEs {
		cid := g.ClusterOf(pe.ID)
		g.clusterPEs[cid] = append(g.clusterPEs[cid], pe.ID)
		if pe.MemCapable {
			g.memPEs = append(g.memPEs, pe.ID)
		}
	}
	// One BFS per source PE over the directed links.
	g.minElapsed = make([]uint8, n*n)
	hops := make([]int, n)
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		for i := range hops {
			hops[i] = -1
		}
		hops[src] = 0
		queue = append(queue[:0], src)
		for i := 0; i < len(queue); i++ {
			p := queue[i]
			for _, q := range g.neighbors[p] {
				if hops[q] < 0 {
					hops[q] = hops[p] + 1
					queue = append(queue, q)
				}
			}
		}
		row := g.minElapsed[src*n : (src+1)*n]
		for q, h := range hops {
			row[q] = Unreachable
			if h >= 0 {
				row[q] = uint8(min(max(0, h-1), Unreachable-1))
			}
		}
	}
}

// NumPEs returns the total PE count.
func (g *CGRA) NumPEs() int { return len(g.PEs) }

// NumClusters returns ClusterRows*ClusterCols.
func (g *CGRA) NumClusters() int { return g.ClusterRows * g.ClusterCols }

// PEAt returns the PE id at grid coordinates (row, col).
func (g *CGRA) PEAt(row, col int) int { return row*g.Cols + col }

// ClusterOf returns the cluster id containing the PE.
func (g *CGRA) ClusterOf(pe int) int {
	p := g.PEs[pe]
	cr := p.Row / g.peClusterRows
	cc := p.Col / g.peClusterCols
	return cr*g.ClusterCols + cc
}

// ClusterCoord returns the (row, col) of a cluster id in the cluster
// grid.
func (g *CGRA) ClusterCoord(cid int) (row, col int) {
	return cid / g.ClusterCols, cid % g.ClusterCols
}

// ClusterID returns the cluster id at cluster-grid coordinates.
func (g *CGRA) ClusterID(row, col int) int { return row*g.ClusterCols + col }

// PEsInCluster returns the PE ids of a cluster. The slice must not be
// modified.
func (g *CGRA) PEsInCluster(cid int) []int { return g.clusterPEs[cid] }

// MemPEs returns the ids of memory-capable PEs. The slice must not be
// modified.
func (g *CGRA) MemPEs() []int { return g.memPEs }

// Neighbors returns the PEs reachable from pe in a single hop
// (including express inter-cluster links). The slice must not be
// modified.
func (g *CGRA) Neighbors(pe int) []int { return g.neighbors[pe] }

// ClusterDistance returns the Manhattan distance between two clusters
// in the cluster grid.
func (g *CGRA) ClusterDistance(a, b int) int {
	ar, ac := g.ClusterCoord(a)
	br, bc := g.ClusterCoord(b)
	return abs(ar-br) + abs(ac-bc)
}

// PEDistance returns the Manhattan distance between two PEs.
func (g *CGRA) PEDistance(a, b int) int {
	pa, pb := g.PEs[a], g.PEs[b]
	return abs(pa.Row-pb.Row) + abs(pa.Col-pb.Col)
}

// MinElapsed returns the fewest cycles a value produced on PE p must
// wait before an FU of PE q can consume it: max(0, hops-1) over the
// shortest directed link path of hops links, since a value leaves on
// its first wire in the production cycle and is consumed in the cycle
// its last wire arrives. It is Unreachable when no path exists. An
// express link is one hop, so MinElapsed can lie below
// PEDistance(p, q)-1. Values saturate at Unreachable-1, where they stay
// lower bounds.
func (g *CGRA) MinElapsed(p, q int) int { return int(g.minElapsed[p*len(g.PEs)+q]) }

// InfeasibleMII is the sentinel the II lower bounds return when no II
// can work: memory operations with no memory-capable PE to run on.
const InfeasibleMII = 1 << 20

// ResMII returns the resource-constrained minimum initiation interval
// for a DFG on this CGRA: every operation needs one FU slot per II
// cycles, and memory operations are restricted to memory-capable PEs.
func (g *CGRA) ResMII(d *dfg.Graph) int {
	stats := d.ComputeStats()
	mii := ceilDiv(stats.Nodes, g.NumPEs())
	if len(g.memPEs) > 0 {
		if m := ceilDiv(stats.MemOps, len(g.memPEs)); m > mii {
			mii = m
		}
	} else if stats.MemOps > 0 {
		// No memory PEs at all: unmappable.
		return InfeasibleMII
	}
	if mii < 1 {
		mii = 1
	}
	return mii
}

// MII returns max(ResMII, RecMII) — the minimum feasible initiation
// interval (Rau's iterative modulo scheduling lower bound).
func (g *CGRA) MII(d *dfg.Graph) int {
	res := g.ResMII(d)
	rec := d.RecMII()
	if rec > res {
		return rec
	}
	return res
}

// ClusterMII returns the tightest per-cluster resource lower bound on
// II implied by a cluster restriction (Panorama guidance): every node
// pinned to a single cluster needs an FU slot there (memory ops a
// memory-capable one). Nodes allowed several clusters are charged to
// none (conservative). It returns InfeasibleMII when a memory op is
// pinned to a cluster without a memory-capable PE; what to do then —
// fail, or relax the restriction — is the caller's policy.
func (g *CGRA) ClusterMII(d *dfg.Graph, allowed [][]int) int {
	load := make([]int, g.NumClusters())
	memLoad := make([]int, g.NumClusters())
	for v, cids := range allowed {
		if len(cids) != 1 {
			continue
		}
		load[cids[0]]++
		if d.Nodes[v].Op.IsMem() {
			memLoad[cids[0]]++
		}
	}
	bound := 1
	for cid := 0; cid < g.NumClusters(); cid++ {
		pes := len(g.PEsInCluster(cid))
		mems := 0
		for _, pe := range g.PEsInCluster(cid) {
			if g.PEs[pe].MemCapable {
				mems++
			}
		}
		if pes > 0 {
			if b := ceilDiv(load[cid], pes); b > bound {
				bound = b
			}
		}
		if mems > 0 {
			if b := ceilDiv(memLoad[cid], mems); b > bound {
				bound = b
			}
		} else if memLoad[cid] > 0 {
			return InfeasibleMII
		}
	}
	return bound
}

// IIRange is the interval of initiation intervals a lower mapper tries
// (Algorithm 2's outer loop): Start..End inclusive, empty when
// Start > End. MII is the global bound QoM is reported against.
type IIRange struct {
	MII, Start, End int
}

// hopelessSlack is how far past MII a cluster restriction's own bound
// may lie before the restriction is called unsatisfiable. It also
// covers the InfeasibleMII sentinel ClusterMII returns.
const hopelessSlack = 64

// RestrictionError reports a cluster restriction that does not have
// one entry per DFG node.
type RestrictionError struct {
	Entries, Nodes int
}

// Error names both lengths.
func (e *RestrictionError) Error() string {
	return fmt.Sprintf("arch: cluster restriction has %d entries for %d nodes", e.Entries, e.Nodes)
}

// IIRange is the one II-escalation policy of every lower mapper. The
// search starts at max(MII, ClusterMII(allowed)): under cluster
// guidance the per-cluster bound can exceed the global one, and
// starting there skips provably infeasible IIs. It ends at maxII, or,
// when maxII is unset (<= 0), at max(MII+slack, Start+2). The range is
// empty — the caller reports failure so its own caller can relax the
// restriction — when the restriction is hopeless (Start > MII+64, e.g.
// memory ops pinned to a memory-less cluster) or when maxII < Start. A
// non-nil allowed must have one entry per node.
func (g *CGRA) IIRange(d *dfg.Graph, allowed [][]int, maxII, slack int) (IIRange, error) {
	if allowed != nil && len(allowed) != d.NumNodes() {
		return IIRange{}, &RestrictionError{Entries: len(allowed), Nodes: d.NumNodes()}
	}
	mii := g.MII(d)
	r := IIRange{MII: mii, Start: mii, End: maxII}
	if allowed != nil {
		r.Start = max(mii, g.ClusterMII(d, allowed))
	}
	switch {
	case r.Start > mii+hopelessSlack:
		r.End = r.Start - 1
	case maxII <= 0:
		r.End = max(mii+slack, r.Start+2)
	}
	return r, nil
}

// QoM returns the paper's Quality of Mapping metric MII/II (1.0 is
// optimal); 0 when there is no mapping (ii is 0).
func QoM(mii, ii int) float64 {
	if ii <= 0 {
		return 0
	}
	return float64(mii) / float64(ii)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// String returns a short description such as "hycube16 16x16 (4x4 clusters)".
func (g *CGRA) String() string {
	return fmt.Sprintf("%s %dx%d (%dx%d clusters of %dx%d PEs)",
		g.Name, g.Rows, g.Cols, g.ClusterRows, g.ClusterCols, g.peClusterRows, g.peClusterCols)
}

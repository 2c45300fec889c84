// Package ultrafast implements the UltraFast* lower-level mapper: a
// model of the DAC'21 Ultra-Fast scheduler for HyCUBE-style CGRAs. Its
// defining simplifications (paper §4, "Comparison with Architecture
// Specific Compiler") are kept:
//
//   - single-cycle multi-hop interconnect: a value can cross any number
//     of hops inside one cycle, so the 3-D mapping problem collapses to
//     2-D (which PE, which modulo slot);
//   - unlimited registers per PE: values park for free until consumed;
//   - greedy first-fit placement: nodes take the first feasible PE in
//     index order, which packs operations into a corner of the array
//     and congests the crossbars — the failure mode Panorama's
//     distribution repairs.
//
// The only physical resource the model charges is per-cycle crossbar
// bandwidth: every PE a transfer passes through (including the
// producer) spends one of CrossbarCap forwarding slots in the transfer
// cycle.
package ultrafast

import (
	"context"
	"fmt"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/obs"
	"panorama/internal/verify"
)

// Options tunes the mapper.
type Options struct {
	// MaxII caps II escalation; 0 means DefaultIISlack past MII (see
	// arch.IIRange).
	MaxII int
	// AllowedClusters restricts each DFG node to the given CGRA
	// clusters (Panorama guidance); nil = unrestricted.
	AllowedClusters [][]int
	// CrossbarCap is the per-PE per-cycle forwarding capacity
	// (default 4: the four mesh output ports of a HyCUBE PE).
	CrossbarCap int
}

// DefaultIISlack is how far past MII the mapper escalates by default.
// UltraFast's greedy placement needs more headroom than SPR*.
const DefaultIISlack = 40

// Result is the outcome of Map.
type Result struct {
	Success bool
	MII     int
	II      int
	// Mapping is the 2-D placement (nil unless Success), stamped
	// ModelCrossbar with the capacity it was placed under. It carries no
	// routes: the single-cycle multi-hop assumption reduces routing to
	// the bandwidth accounting checked during placement.
	Mapping *verify.Mapping
}

// Map greedily modulo-schedules the DFG, escalating II until the
// first-fit placement succeeds.
func Map(d *dfg.Graph, a *arch.CGRA, opts Options) (*Result, error) {
	return MapCtx(context.Background(), d, a, opts)
}

// MapCtx is Map with cancellation, checked between II attempts (each
// attempt is a single greedy pass and completes quickly).
func MapCtx(ctx context.Context, d *dfg.Graph, a *arch.CGRA, opts Options) (*Result, error) {
	if err := d.Freeze(); err != nil {
		return nil, err
	}
	r, err := a.IIRange(d, opts.AllowedClusters, opts.MaxII, DefaultIISlack)
	if err != nil {
		return nil, fmt.Errorf("ultrafast: %w", err)
	}
	if opts.CrossbarCap <= 0 {
		opts.CrossbarCap = verify.DefaultCrossbarCap
	}
	res := &Result{MII: r.MII}
	st := newState(d, a, &opts)
	for ii := r.Start; ii <= r.End; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mAttempts.Inc()
		_, span := obs.StartSpan(ctx, "ultrafast.attempt")
		span.Set("ii", ii)
		placed, ok := st.attempt(ii)
		mPlacements.Add(int64(placed))
		span.Add("placements", int64(placed))
		span.Set("ok", ok)
		span.End()
		if ok {
			// st is dropped here, so the mapping takes its placement arrays
			// and owns them.
			m := &verify.Mapping{Model: verify.ModelCrossbar, II: ii, PlacePE: st.placePE, PlaceT: st.placeT,
				CrossbarCap: opts.CrossbarCap}
			// Self-check against the shared legality oracle, exactly as
			// SPR* does: a mapper bug must surface here, not in a caller.
			_, vspan := obs.StartSpan(ctx, "ultrafast.validate")
			err := verify.Check(d, a, m, opts.AllowedClusters)
			vspan.End()
			if err != nil {
				return nil, fmt.Errorf("ultrafast: internal error, invalid mapping at II=%d: %w", ii, err)
			}
			res.Success = true
			res.II = ii
			res.Mapping = m
			return res, nil
		}
	}
	return res, nil
}

// ufState is the working set of one MapCtx call. What depends only on
// the graph, the fabric and the guidance (order, cands) is built once;
// the per-II arrays are reused across attempts, and the probe's
// rollback list is scratch, so an II escalation and a (PE, cycle) probe
// allocate nothing.
type ufState struct {
	d    *dfg.Graph
	a    *arch.CGRA
	ii   int
	opts *Options

	order []int   // placement order: topological over Dist==0 edges
	cands [][]int // legal PEs per node, index order; unguided nodes share one slice

	placePE []int
	placeT  []int
	fuBusy  []bool // (pe*ii + slot)
	xbarUse []int  // (pe*ii + slot) forwarding slots spent

	claimed []int // xbarUse indices the probe in progress has claimed
}

func newState(d *dfg.Graph, a *arch.CGRA, opts *Options) *ufState {
	n := d.NumNodes()
	st := &ufState{d: d, a: a, opts: opts, order: d.TopoOrder(),
		placePE: make([]int, n), placeT: make([]int, n)}
	st.buildCands()
	return st
}

// attempt runs one greedy first-fit pass at a fixed II, leaving the
// placement in placePE/placeT. It also reports how many nodes were
// placed before success or failure, the mapper's effort unit.
func (st *ufState) attempt(ii int) (placed int, ok bool) {
	st.ii = ii
	for i := range st.placePE {
		st.placePE[i] = -1
		st.placeT[i] = -1
	}
	st.fuBusy = zeroed(st.fuBusy, st.a.NumPEs()*ii)
	st.xbarUse = zeroed(st.xbarUse, st.a.NumPEs()*ii)
	for _, v := range st.order {
		if !st.placeGreedy(v) {
			return placed, false
		}
		placed++
	}
	return placed, true
}

// zeroed returns s resized to n zero elements. The first call sizes it
// exactly (most runs succeed at their first II); one that outgrows it
// at least doubles it, so a long escalation reallocates O(log) times.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+cap(s))
	}
	s = s[:n]
	clear(s)
	return s
}

// buildCands lists each node's legal PEs in the order the greedy pass
// tries them. The lists are read-only: every unguided node points at
// the same all-PE slice, or at the fabric's own MemPEs.
func (st *ufState) buildCands() {
	n := st.d.NumNodes()
	st.cands = make([][]int, n)
	all := make([]int, st.a.NumPEs())
	for pe := range all {
		all[pe] = pe
	}
	for v := 0; v < n; v++ {
		mem := st.d.Nodes[v].Op.IsMem()
		if st.opts.AllowedClusters == nil || st.opts.AllowedClusters[v] == nil {
			st.cands[v] = all
			if mem {
				st.cands[v] = st.a.MemPEs()
			}
			continue
		}
		var pes []int
		for _, cid := range st.opts.AllowedClusters[v] {
			for _, pe := range st.a.PEsInCluster(cid) {
				if !mem || st.a.PEs[pe].MemCapable {
					pes = append(pes, pe)
				}
			}
		}
		st.cands[v] = pes
	}
}

// placeGreedy schedules v at the earliest cycle with the first PE (in
// index order) whose FU slot is free and whose operand transfers fit
// the crossbar budget.
func (st *ufState) placeGreedy(v int) bool {
	est := 0
	ubound := 1 << 30
	for _, ei := range st.d.InEdges(v) {
		e := st.d.Edges[ei]
		p := e.From
		if st.placeT[p] < 0 {
			continue
		}
		if t := st.placeT[p] + st.d.Nodes[p].Op.Latency() - e.Dist*st.ii; t > est {
			est = t
		}
	}
	for _, ei := range st.d.OutEdges(v) {
		e := st.d.Edges[ei]
		w := e.To
		if w == v {
			continue
		}
		if st.placeT[w] < 0 {
			continue
		}
		// Back edge to an already placed consumer: v must finish in time.
		if t := st.placeT[w] + e.Dist*st.ii - st.d.Nodes[v].Op.Latency(); t < ubound {
			ubound = t
		}
	}
	if est < 0 {
		est = 0
	}
	hi := est + st.ii - 1
	if hi > ubound {
		hi = ubound
	}
	for t := est; t <= hi; t++ {
		slot := t % st.ii
		for _, pe := range st.cands[v] {
			if st.fuBusy[pe*st.ii+slot] {
				continue
			}
			if st.tryClaimTransfers(v, pe, t) {
				st.placePE[v] = pe
				st.placeT[v] = t
				st.fuBusy[pe*st.ii+slot] = true
				return true
			}
		}
	}
	return false
}

// tryClaimTransfers checks and claims crossbar bandwidth for every
// operand of v arriving at (pe, t) and for back-edge deliveries from v
// to already-placed consumers. All-or-nothing.
func (st *ufState) tryClaimTransfers(v, pe, t int) bool {
	st.claimed = st.claimed[:0]
	// Operands arriving at v.
	for _, ei := range st.d.InEdges(v) {
		e := st.d.Edges[ei]
		p := e.From
		if st.placeT[p] < 0 || p == v {
			continue
		}
		if !st.claimPath(st.placePE[p], pe, t%st.ii) {
			st.rollback()
			return false
		}
	}
	// Values v must deliver to already-placed consumers (back edges).
	for _, ei := range st.d.OutEdges(v) {
		e := st.d.Edges[ei]
		w := e.To
		if st.placeT[w] < 0 || w == v {
			continue
		}
		if !st.claimPath(pe, st.placePE[w], st.placeT[w]%st.ii) {
			st.rollback()
			return false
		}
	}
	return true
}

// claim spends one forwarding slot of PE p in the given cycle, noting
// it on the rollback list; false when p's crossbar is full.
func (st *ufState) claim(p, slot int) bool {
	idx := p*st.ii + slot
	if st.xbarUse[idx] >= st.opts.CrossbarCap {
		return false
	}
	st.xbarUse[idx]++
	st.claimed = append(st.claimed, idx)
	return true
}

// rollback returns every slot the probe in progress claimed.
func (st *ufState) rollback() {
	for _, idx := range st.claimed {
		st.xbarUse[idx]--
	}
	st.claimed = st.claimed[:0]
}

// claimPath spends one forwarding slot in every PE along the H-then-V
// Manhattan path from src to dst (excluding dst) in the given cycle.
// Same-PE delivery is free (local register read).
func (st *ufState) claimPath(src, dst, slot int) bool {
	if src == dst {
		return true
	}
	sr, sc := st.a.PEs[src].Row, st.a.PEs[src].Col
	dr, dc := st.a.PEs[dst].Row, st.a.PEs[dst].Col
	r, c := sr, sc
	for c != dc {
		if !st.claim(st.a.PEAt(r, c), slot) {
			return false
		}
		if dc > c {
			c++
		} else {
			c--
		}
	}
	for r != dr {
		if !st.claim(st.a.PEAt(r, c), slot) {
			return false
		}
		if dr > r {
			r++
		} else {
			r--
		}
	}
	return true
}

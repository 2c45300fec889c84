package spr

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
	"panorama/internal/verify"
)

// cancelled reports whether the attempt's context has fired; inner
// loops use it to bail out early and leave error reporting to the
// ctx.Err() checks in attemptII/MapCtx.
func (st *state) cancelled() bool {
	return st.ctx != nil && st.ctx.Err() != nil
}

// sink is one consumer of a signal.
type sink struct {
	edge     int // DFG edge index
	consumer int // DFG node
	delta    int // exact cycles the route must take (schedule slack)
}

// dnode is one router state's Dijkstra scratch: tentative distance,
// predecessor state, and the epoch stamp that marks it reached
// (st.cur) or settled (-st.cur) without clearing between searches.
type dnode struct {
	dist  float64
	prev  int32
	stamp int32
}

// resCost is the per-MRRG-node congestion state nodeCost reads on
// every relaxation: the accumulated PathFinder history factor and the
// node's remaining capacity headroom (Cap - usage), fused so the hot
// loop touches one cache line per node instead of three arrays.
type resCost struct {
	hist float64
	head int16
}

// occClaim is one reference-counted occupancy of a routing state
// (node, elapsed phase) by a signal, across its sink routes.
type occClaim struct {
	state int32 // node*(maxDelta+1) + elapsed, the router's state index
	count int32 // how many of the signal's routes pass this state
}

// signal is one produced value and all its consumers. PathFinder
// counts a signal once per resource regardless of fan-out.
type signal struct {
	src    int
	sinks  []sink
	routes [][]int32 // per sink; nil = currently unrouted

	// claims is the authoritative per-phase occupancy of the signal: a
	// compact list scanned linearly on claim/rip-up (routes are short).
	// The router's congestion costing never scans it — the state's
	// shared occupancy bitset answers membership in O(1) for the signal
	// currently being routed (see state.beginRouting).
	claims []occClaim
}

// claimIndex returns the position of state in claims, or -1.
func (sig *signal) claimIndex(state int32) int {
	for i := range sig.claims {
		if sig.claims[i].state == state {
			return i
		}
	}
	return -1
}

type state struct {
	d    *dfg.Graph
	a    *arch.CGRA
	g    *mrrg.Graph
	ii   int
	opts *Options
	// ctx, when set, lets the router and annealer bail out of their
	// inner loops early; attemptII surfaces the actual ctx.Err().
	ctx context.Context

	maxDelta int
	placePE  []int
	placeT   []int
	fuOwner  []int32 // MRRG node id -> DFG node (-1 when free); only FU entries used
	resOwner []int32 // MRRG RES node id -> producing DFG node (-1 when free)
	opsOnPE  []int
	candPEs  [][]int // per DFG node: candidate PEs

	alap []int // DFG node -> as-late-as-possible level

	signals      []*signal
	sigOf        []int // DFG node -> signal index (-1 when it has no consumers)
	usage        []int16
	rc           []resCost // per-node congestion state (see resCost)
	presFac      float64
	totalOveruse int
	unrouted     int

	rng *rand.Rand

	// Search-effort counters, accumulated locally inside the hot loops
	// and flushed once per attempt (see obs.go) so instrumentation adds
	// no atomics to routing or annealing inner loops.
	pfIters   int   // PathFinder negotiation iterations run
	ripups    int   // sink routes ripped up for renegotiation
	saMoves   int   // annealing moves attempted
	saAccepts int   // annealing moves accepted
	relax     int64 // Dijkstra edge relaxations examined while routing

	unroutedSinks int   // routeSink calls that left their sink unrouted
	unroutedRelax int64 // the relaxations those calls spent

	fail       int    // DFG node that broke initial placement (-1 = none)
	failReason string // human-readable diagnosis

	// Dijkstra scratch, indexed by node*(maxDelta+1)+elapsed. One
	// struct per router state keeps the distance, predecessor and
	// visit stamp of a relaxation on a single cache line.
	scratch []dnode
	cur     int32
	pq      pqueue

	// bound is searchSink's A* heuristic per elapsed level (goalBound),
	// path the route it reconstructs, and routeBuf the rest of the chunk
	// keepRoute carves claimed routes from: all reused, so a search
	// allocates nothing.
	bound    []float64
	path     []int32
	routeBuf []int32

	// atPE is, per MRRG node, the PE a value held there acts from next:
	// a wire's receiving PE, any other node's own. searchSink's
	// reachability prune measures the remaining distance from it.
	atPE []int32

	// Per-phase occupancy bitset over the same state indexing as the
	// Dijkstra scratch, materialised for the one signal currently being
	// routed (occSig): bit set = occSig occupies that (node, elapsed)
	// state. nodeCost reads it with a single word load in place of the
	// old per-relaxation map lookup.
	occBits []uint64
	occSig  *signal

	// Revisit-detection scratch (routeSink), one stamp per MRRG node.
	visitStamp []int32
	visitCur   int32

	// Wrap-penalty scratch (routeSink retries), epoch-stamped per MRRG
	// node so retries never allocate and stale penalties need no
	// clearing.
	wrapPen   []float64
	wrapStamp []int32
	wrapCur   int32
}

// beginRouting materialises sig's per-phase occupancy into the shared
// bitset, demoting whichever signal held it. Claim and rip-up keep the
// bitset in sync while sig stays current, so repeated calls for the
// same signal are free.
func (st *state) beginRouting(sig *signal) {
	if st.occSig == sig {
		return
	}
	if st.occSig != nil {
		for _, c := range st.occSig.claims {
			st.occBits[c.state>>6] &^= 1 << (uint(c.state) & 63)
		}
	}
	st.occSig = sig
	if sig != nil {
		for _, c := range sig.claims {
			st.occBits[c.state>>6] |= 1 << (uint(c.state) & 63)
		}
	}
}

func newState(d *dfg.Graph, a *arch.CGRA, ii int, opts *Options) (*state, error) {
	g, err := mrrg.New(a, ii)
	if err != nil {
		return nil, err
	}
	st := &state{
		d: d, a: a, g: g, ii: ii, opts: opts,
		// Enough slack for a route across the whole array plus parking:
		// at low II a consumer pinned to a far cluster legitimately
		// needs diameter-many cycles of transport, and a value may wait
		// at most ~II cycles in any one resource before it would wrap
		// into its own next iteration (see routeSink's revisit check),
		// so longer deltas than this are rarely routable anyway.
		maxDelta: 2*ii + 6 + a.Rows + a.Cols,
		rng:      rand.New(rand.NewSource(opts.Seed + int64(ii)*104729)),
		presFac:  1.5,
	}
	n := d.NumNodes()
	st.placePE = make([]int, n)
	st.placeT = make([]int, n)
	for i := range st.placePE {
		st.placePE[i] = -1
		st.placeT[i] = -1
	}
	st.fuOwner = make([]int32, g.NumNodes)
	st.resOwner = make([]int32, g.NumNodes)
	for i := range st.fuOwner {
		st.fuOwner[i] = -1
		st.resOwner[i] = -1
	}
	st.opsOnPE = make([]int, a.NumPEs())
	st.alap = d.ALAP()
	st.usage = make([]int16, g.NumNodes)
	st.rc = make([]resCost, g.NumNodes)
	for i := range st.rc {
		st.rc[i].head = g.Cap[i]
	}
	st.buildCandidates()

	states := g.NumNodes * (st.maxDelta + 1)
	st.scratch = make([]dnode, states)
	st.bound = make([]float64, st.maxDelta+1)
	st.occBits = make([]uint64, (states+63)/64)
	st.visitStamp = make([]int32, g.NumNodes)
	st.wrapPen = make([]float64, g.NumNodes)
	st.wrapStamp = make([]int32, g.NumNodes)
	st.atPE = append([]int32(nil), g.PEOf...)
	for n := range st.atPE {
		if li := g.LinkOf(n); li >= 0 {
			_, to := g.LinkEnds(li)
			st.atPE[n] = int32(to)
		}
	}
	return st, nil
}

// buildCandidates precomputes each DFG node's legal PEs from the
// Panorama cluster restriction and memory capability.
func (st *state) buildCandidates() {
	n := st.d.NumNodes()
	st.candPEs = make([][]int, n)
	for v := 0; v < n; v++ {
		var pes []int
		if st.opts.AllowedClusters != nil && st.opts.AllowedClusters[v] != nil {
			for _, cid := range st.opts.AllowedClusters[v] {
				pes = append(pes, st.a.PEsInCluster(cid)...)
			}
		} else {
			for pe := 0; pe < st.a.NumPEs(); pe++ {
				pes = append(pes, pe)
			}
		}
		if st.d.Nodes[v].Op.IsMem() {
			var mem []int
			for _, pe := range pes {
				if st.a.PEs[pe].MemCapable {
					mem = append(mem, pe)
				}
			}
			pes = mem
		}
		sort.Ints(pes)
		st.candPEs[v] = pes
	}
}

// placementOrder returns the nodes in scheduling priority order:
// topological over forward edges, earliest ASAP level first, higher
// fan-out first among equals.
func (st *state) placementOrder() []int {
	order := st.d.TopoOrder()
	asap := st.d.ASAP()
	out := append([]int(nil), order...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if asap[a] != asap[b] {
			return asap[a] < asap[b]
		}
		return st.d.Degree(a) > st.d.Degree(b)
	})
	// Stable sort may break topological consistency between unequal
	// ASAP levels only if an edge connects equal levels, which cannot
	// happen (an edge strictly increases ASAP). Degree ties within a
	// level are safe for the same reason.
	return out
}

// timeWindow computes the feasible schedule window [est, lst] for v
// given currently placed neighbours. ok is false when the window is
// empty.
func (st *state) timeWindow(v int) (est, lst int, ok bool) {
	est, lst = 0, 1<<30
	for _, ei := range st.d.InEdges(v) {
		e := st.d.Edges[ei]
		p := e.From
		if st.placeT[p] < 0 || p == v {
			continue
		}
		avail := st.placeT[p] + st.d.Nodes[p].Op.Latency() - e.Dist*st.ii
		if avail > est {
			est = avail
		}
		if ub := avail + st.maxDelta; ub < lst {
			lst = ub
		}
	}
	for _, ei := range st.d.OutEdges(v) {
		e := st.d.Edges[ei]
		w := e.To
		if st.placeT[w] < 0 || w == v {
			continue
		}
		// delta = t(w) + dist*ii - t(v) - lat(v) must be in [0, maxDelta].
		ub := st.placeT[w] + e.Dist*st.ii - st.d.Nodes[v].Op.Latency()
		lb := ub - st.maxDelta
		if ub < lst {
			lst = ub
		}
		if lb > est {
			est = lb
		}
	}
	if est < 0 {
		est = 0
	}
	return est, lst, est <= lst
}

// initialPlacement assigns every node a (PE, cycle) with the least-cost
// heuristic (Algorithm 2 lines 4-8). Returns false when any node has no
// feasible slot at this II, recording the failure in fail/failReason,
// or when the attempt's context fires (checked once per node).
func (st *state) initialPlacement() bool {
	for _, v := range st.placementOrder() {
		if st.cancelled() {
			return false
		}
		pe, t, ok := st.bestCandidate(v, false)
		if !ok {
			st.fail = v
			st.failReason = st.explainFailure(v)
			return false
		}
		st.place(v, pe, t)
	}
	return true
}

// explainFailure describes why v has no feasible candidate (diagnostics
// for AttemptStats).
func (st *state) explainFailure(v int) string {
	est, lst, ok := st.timeWindow(v)
	if !ok {
		return fmt.Sprintf("node %d: empty time window", v)
	}
	hi := est + st.ii - 1 + st.a.Rows + st.a.Cols
	if hi > lst {
		hi = lst
	}
	busy, infeasible := 0, 0
	for t := est; t <= hi; t++ {
		for _, pe := range st.candPEs[v] {
			fu := st.g.FUNode(pe, t)
			if st.fuOwner[fu] != -1 {
				busy++
				continue
			}
			if _, feasible := st.placementCost(v, pe, t); !feasible {
				infeasible++
			}
		}
	}
	return fmt.Sprintf("node %d (%s, %d cand PEs): window [%d,%d], %d slots FU-busy, %d distance-infeasible",
		v, st.d.Nodes[v].Op, len(st.candPEs[v]), est, hi, busy, infeasible)
}

// bestCandidate finds the least-cost feasible (PE, cycle) for v. With
// random=true it instead returns a uniformly random feasible candidate
// (used by simulated annealing).
func (st *state) bestCandidate(v int, random bool) (int, int, bool) {
	est, lst, ok := st.timeWindow(v)
	if !ok {
		return 0, 0, false
	}
	// Scan at least II slots (every modulo offset) plus the array
	// diameter: a consumer pinned to a far cluster needs extra cycles
	// of slack before any placement becomes distance-feasible.
	hi := est + st.ii - 1 + st.a.Rows + st.a.Cols
	if hi > lst {
		hi = lst
	}
	bestPE, bestT := -1, -1
	bestCost := 1e18
	nSeen := 0
	for t := est; t <= hi; t++ {
		for _, pe := range st.candPEs[v] {
			fu := st.g.FUNode(pe, t)
			if st.fuOwner[fu] != -1 && int(st.fuOwner[fu]) != v {
				continue
			}
			// The result register at the value's arrival slot must be
			// free too: two producers landing results in the same RES
			// slot is an unroutable conflict.
			if st.producesValue(v) {
				res := st.g.ResNode(pe, t+st.d.Nodes[v].Op.Latency())
				if own := st.resOwner[res]; own != -1 && int(own) != v {
					continue
				}
			}
			cost, feasible := st.placementCost(v, pe, t)
			if !feasible {
				continue
			}
			if random {
				nSeen++
				if st.rng.Intn(nSeen) == 0 {
					bestPE, bestT = pe, t
				}
			} else if cost < bestCost {
				bestCost, bestPE, bestT = cost, pe, t
			}
		}
	}
	if bestPE < 0 {
		return 0, 0, false
	}
	return bestPE, bestT, true
}

// placementCost estimates the routing cost of putting v at (pe, t):
// distance plus waiting slack to every placed neighbour (edgeCost).
// This is SPR's local view — the cost only sees already-placed
// neighbours, which is precisely the narrow perspective Panorama's
// higher-level guidance compensates for (paper §2). A small same-PE
// tie-breaker avoids degenerate stacking on PE 0. feasible=false when
// the router could not reach some placed neighbour within its slack.
func (st *state) placementCost(v, pe, t int) (float64, bool) {
	cost := 0.02 * float64(st.opsOnPE[pe])
	if st.opts.placementJitter > 0 {
		cost += st.rng.Float64() * st.opts.placementJitter
	}
	// Pull nodes with slack toward their ALAP level: scheduling a
	// shallow chain eagerly leaves its join partner waiting for the
	// deep chain, and waits beyond ~II cycles per resource are
	// expensive (or unroutable) in a modulo schedule.
	if t < st.alap[v] {
		cost += 0.2 * float64(st.alap[v]-t)
	}
	// Soft reservation of memory-capable PEs: their FU slots are the
	// only place loads/stores can live, so ALU operations pay to sit
	// there (they may still, when the fabric is saturated).
	if st.a.PEs[pe].MemCapable && !st.d.Nodes[v].Op.IsMem() {
		cost += 1.2
	}
	for _, ei := range st.d.InEdges(v) {
		e := st.d.Edges[ei]
		p := e.From
		if st.placeT[p] < 0 || p == v {
			continue
		}
		delta := t + e.Dist*st.ii - st.placeT[p] - st.d.Nodes[p].Op.Latency()
		c, ok := st.edgeCost(st.placePE[p], pe, delta)
		if !ok {
			return 0, false
		}
		cost += c
	}
	for _, ei := range st.d.OutEdges(v) {
		e := st.d.Edges[ei]
		w := e.To
		if st.placeT[w] < 0 || w == v {
			continue
		}
		delta := st.placeT[w] + e.Dist*st.ii - t - st.d.Nodes[v].Op.Latency()
		c, ok := st.edgeCost(pe, st.placePE[w], delta)
		if !ok {
			return 0, false
		}
		cost += c
	}
	// Self-recurrence (v -> v with dist>0): delta depends only on t.
	for _, ei := range st.d.OutEdges(v) {
		e := st.d.Edges[ei]
		if e.To != v {
			continue
		}
		delta := e.Dist*st.ii - st.d.Nodes[v].Op.Latency()
		if delta < 0 || delta > st.maxDelta {
			return 0, false
		}
	}
	return cost, true
}

// edgeCost prices one DFG edge whose value leaves PE p and is consumed
// on PE q delta cycles after it is produced. The bound is the router's:
// a delta below arch.MinElapsed(p, q) is unroutable, and so is an
// unreachable pair at any delta. Between different PEs the cost is the
// hops of the fastest path, MinElapsed+1, plus 0.75 of the cycles that
// path's express links save over the mesh (PEDistance): express links
// are few, six per cluster pair, and a placement that leans on them
// crowds them. Slack beyond the bound costs 0.3 a cycle of waiting.
func (st *state) edgeCost(p, q, delta int) (float64, bool) {
	me := st.a.MinElapsed(p, q)
	if me == arch.Unreachable || delta < me || delta > st.maxDelta {
		return 0, false
	}
	hop := 0.0
	if p != q {
		hop = float64(me + 1)
	}
	return hop + 0.75*(float64(st.a.PEDistance(p, q))-hop) + 0.3*float64(delta-me), true
}

func (st *state) place(v, pe, t int) {
	st.placePE[v] = pe
	st.placeT[v] = t
	st.fuOwner[st.g.FUNode(pe, t)] = int32(v)
	if st.producesValue(v) {
		st.resOwner[st.g.ResNode(pe, t+st.d.Nodes[v].Op.Latency())] = int32(v)
	}
	st.opsOnPE[pe]++
}

func (st *state) unplace(v int) {
	pe, t := st.placePE[v], st.placeT[v]
	st.fuOwner[st.g.FUNode(pe, t)] = -1
	if st.producesValue(v) {
		st.resOwner[st.g.ResNode(pe, t+st.d.Nodes[v].Op.Latency())] = -1
	}
	st.opsOnPE[pe]--
	st.placePE[v] = -1
	st.placeT[v] = -1
}

// producesValue reports whether v writes a result into its PE's result
// register (i.e. it has at least one consumer).
func (st *state) producesValue(v int) bool {
	return len(st.d.OutEdges(v)) > 0
}

// buildSignals groups DFG edges by their producing node and computes
// each sink's required elapsed time from the schedule.
func (st *state) buildSignals() {
	n := st.d.NumNodes()
	st.sigOf = make([]int, n)
	for i := range st.sigOf {
		st.sigOf[i] = -1
	}
	st.signals = nil
	for v := 0; v < n; v++ {
		outs := st.d.OutEdges(v)
		if len(outs) == 0 {
			continue
		}
		sig := &signal{src: v}
		for _, ei := range outs {
			e := st.d.Edges[ei]
			sig.sinks = append(sig.sinks, sink{edge: ei, consumer: e.To})
		}
		sig.routes = make([][]int32, len(sig.sinks))
		st.sigOf[v] = len(st.signals)
		st.signals = append(st.signals, sig)
	}
	st.refreshDeltas()
}

// refreshDeltas recomputes every sink's exact slack from the current
// schedule.
func (st *state) refreshDeltas() {
	for _, sig := range st.signals {
		lat := st.d.Nodes[sig.src].Op.Latency()
		for i := range sig.sinks {
			s := &sig.sinks[i]
			e := st.d.Edges[s.edge]
			sig.sinks[i].delta = st.placeT[s.consumer] + e.Dist*st.ii - st.placeT[sig.src] - lat
		}
	}
}

// extractMapping snapshots the current placement and routes.
func (st *state) extractMapping() *verify.Mapping {
	m := &verify.Mapping{
		Model:   verify.ModelRouted,
		II:      st.ii,
		PlacePE: append([]int(nil), st.placePE...),
		PlaceT:  append([]int(nil), st.placeT...),
		Routes:  make([][]int32, st.d.NumEdges()),
	}
	for _, sig := range st.signals {
		for i, s := range sig.sinks {
			m.Routes[s.edge] = append([]int32(nil), sig.routes[i]...)
		}
	}
	return m
}

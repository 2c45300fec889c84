package spr

import (
	"math"

	"panorama/internal/mrrg"
)

// pqueue is a binary min-heap of (cost, state) pairs with lazy
// deletion: an improvement pushes a duplicate entry and stale entries
// are skipped at pop time. (An indexed decrease-key variant was
// measured and lost: the position-map writes on every sift level cost
// more than the duplicates they avoid.) The two payload fields live
// in parallel slices so the sift-down descent — which reads only
// costs — stays dense in cache, and sifting moves a hole instead of
// swapping (half the writes). The comparison order is exactly that of
// the classic swap-based heap, so the pop sequence — and therefore
// route tie-breaking on equal costs, which the mapping hashes are
// sensitive to — is unchanged. (Bottom-up deletion was tried and
// drifted the mappings.)
type pqueue struct {
	cost []float64
	id   []int32
}

func (q *pqueue) reset() { q.cost = q.cost[:0]; q.id = q.id[:0] }

func (q *pqueue) push(c float64, s int32) {
	q.cost = append(q.cost, 0)
	q.id = append(q.id, 0)
	i := len(q.cost) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.cost[p] <= c {
			break
		}
		q.cost[i], q.id[i] = q.cost[p], q.id[p]
		i = p
	}
	q.cost[i], q.id[i] = c, s
}

func (q *pqueue) pop() (float64, int32) {
	c, s := q.cost[0], q.id[0]
	last := len(q.cost) - 1
	lc, li := q.cost[last], q.id[last]
	q.cost, q.id = q.cost[:last], q.id[:last]
	if last == 0 {
		return c, s
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small, smallCost := i, lc
		if l < last && q.cost[l] < smallCost {
			small, smallCost = l, q.cost[l]
		}
		if r < last && q.cost[r] < smallCost {
			small = r
		}
		if small == i {
			break
		}
		q.cost[i], q.id[i] = q.cost[small], q.id[small]
		i = small
	}
	q.cost[i], q.id[i] = lc, li
	return c, s
}

func (q *pqueue) empty() bool { return len(q.cost) == 0 }

// claimNode records one more value on an MRRG node, updating overuse
// and the node's cost headroom.
func (st *state) claimNode(node int32) {
	st.usage[node]++
	st.rc[node].head--
	if int(st.usage[node]) > int(st.g.Cap[node]) {
		st.totalOveruse++
	}
}

// releaseNode removes a value from an MRRG node.
func (st *state) releaseNode(node int32) {
	if int(st.usage[node]) > int(st.g.Cap[node]) {
		st.totalOveruse--
	}
	st.usage[node]--
	st.rc[node].head++
}

// walkElapsed visits every node of a route with its elapsed time.
func (st *state) walkElapsed(route []int32, visit func(node int32, elapsed int)) {
	if len(route) == 0 {
		return
	}
	elapsed := 0
	visit(route[0], 0)
	for i := 0; i+1 < len(route); i++ {
		if e, ok := st.g.FindEdge(route[i], route[i+1]); ok && e.Adv {
			elapsed++
		}
		visit(route[i+1], elapsed)
	}
}

// claimRoute registers a freshly routed path for sig's sink i.
func (st *state) claimRoute(sig *signal, i int, route []int32) {
	sig.routes[i] = route
	width := int32(st.maxDelta + 1)
	st.walkElapsed(route, func(n int32, elapsed int) {
		if st.g.Kinds[n] == mrrg.KindFU {
			return // consumer FU input: placement resource, not routing
		}
		s := n*width + int32(elapsed)
		if ci := sig.claimIndex(s); ci >= 0 {
			sig.claims[ci].count++
		} else {
			sig.claims = append(sig.claims, occClaim{state: s, count: 1})
			st.claimNode(n)
			if st.occSig == sig {
				st.occBits[s>>6] |= 1 << (uint(s) & 63)
			}
		}
	})
}

// ripupSink releases the path of sig's sink i.
func (st *state) ripupSink(sig *signal, i int) {
	route := sig.routes[i]
	if route == nil {
		return
	}
	st.ripups++
	width := int32(st.maxDelta + 1)
	st.walkElapsed(route, func(n int32, elapsed int) {
		if st.g.Kinds[n] == mrrg.KindFU {
			return
		}
		s := n*width + int32(elapsed)
		ci := sig.claimIndex(s)
		sig.claims[ci].count--
		if sig.claims[ci].count == 0 {
			last := len(sig.claims) - 1
			sig.claims[ci] = sig.claims[last]
			sig.claims = sig.claims[:last]
			st.releaseNode(n)
			if st.occSig == sig {
				st.occBits[s>>6] &^= 1 << (uint(s) & 63)
			}
		}
	})
	sig.routes[i] = nil
}

// ripupSignal releases every route of the signal.
func (st *state) ripupSignal(sig *signal) {
	for i := range sig.routes {
		if sig.routes[i] != nil {
			st.ripupSink(sig, i)
		} else {
			// an unrouted sink is accounted in st.unrouted
		}
	}
}

// nodeCost is the PathFinder negotiated-congestion cost of letting sig
// newly occupy node n at the given elapsed phase. sig must be the
// signal materialised in the occupancy bitset (beginRouting); the
// membership test is a single word load.
func (st *state) nodeCost(sig *signal, n int32, elapsed int) float64 {
	s := n*int32(st.maxDelta+1) + int32(elapsed)
	if st.occBits[s>>6]&(1<<(uint(s)&63)) != 0 {
		return 0.01 // the signal already owns this phase: sharing is free
	}
	rc := &st.rc[n]
	over := float64(1 - int(rc.head)) // usage + 1 - cap
	if over < 0 {
		over = 0
	}
	return (1 + rc.hist) * (1 + st.presFac*over)
}

// routeSink finds a path for sig's sink i: from the producer's result
// register at its availability slot to the consumer's FU node, taking
// exactly delta cycles. Returns false when no physically valid path
// exists in the MRRG.
//
// A candidate path that revisits an MRRG node has wrapped the modulo
// schedule (the value would hold one resource for more than II cycles
// and collide with its own next iteration); the offending node gets a
// temporary penalty and the search repeats, steering long waits into
// split parks across several registers.
func (st *state) routeSink(sig *signal, i int) bool {
	st.beginRouting(sig)
	st.wrapCur++
	hasWrap := false
	for try := 0; try < 6; try++ {
		route, ok := st.searchSink(sig, i, hasWrap)
		if !ok {
			return false
		}
		if dup := st.firstRevisit(route); dup >= 0 {
			n := route[dup]
			if st.wrapStamp[n] != st.wrapCur {
				st.wrapStamp[n] = st.wrapCur
				st.wrapPen[n] = 0
			}
			st.wrapPen[n] += 6
			hasWrap = true
			continue
		}
		st.claimRoute(sig, i, route)
		return true
	}
	return false
}

// firstRevisit returns the index of the first repeated node in the
// route, or -1, using the per-node stamp scratch (no per-call
// allocation).
func (st *state) firstRevisit(route []int32) int {
	st.visitCur++
	for i, n := range route {
		if st.visitStamp[n] == st.visitCur {
			return i
		}
		st.visitStamp[n] = st.visitCur
	}
	return -1
}

// searchSink runs the elapsed-exact Dijkstra for one sink and returns
// the cheapest path without claiming it. hasWrap tells it to consult
// the epoch-stamped wrap penalties accumulated by routeSink's retry
// loop (false on the common first try, so the relax loop pays
// nothing).
//
// A successor state whose remaining cycles cannot cover the link
// distance to the consumer's PE (arch.MinElapsed) lies on no path to
// the target and is never pushed. Every predecessor of a state that
// reaches the target reaches it too, so the pruning is exact: the
// target's cost is the unpruned search's, though equal-cost ties may
// break differently, as the heap holds other entries.
func (st *state) searchSink(sig *signal, i int, hasWrap bool) ([]int32, bool) {
	s := sig.sinks[i]
	if s.delta < 0 || s.delta > st.maxDelta {
		return nil, false
	}
	lat := st.d.Nodes[sig.src].Op.Latency()
	srcPE := st.placePE[sig.src]
	start := int32(st.g.ResNode(srcPE, st.placeT[sig.src]+lat))
	q := st.placePE[s.consumer]
	target := int32(st.g.FUNode(q, st.placeT[s.consumer]))

	// Does the signal prefer the express inter-cluster links? The paper
	// prioritises inter-cluster DFG edges and back edges for them.
	prefer := st.d.Edges[s.edge].Dist > 0 ||
		st.a.ClusterOf(srcPE) != st.a.ClusterOf(q)

	width := st.maxDelta + 1
	st.cur++
	st.pq.reset()

	startState := start*int32(width) + 0
	startCost := st.nodeCost(sig, start, 0)
	st.scratch[startState] = dnode{dist: startCost, prev: -1, stamp: st.cur}
	st.pq.push(startCost, startState)

	targetState := target*int32(width) + int32(s.delta)

	// Hoist the hot-loop state into locals: the pq.push call inside the
	// loop keeps the compiler from caching loads through st, and the
	// relaxation count stays in a register until the single flush below.
	// The congestion step is nodeCost inlined over the same locals.
	g := st.g
	a, kinds, atPE := st.a, g.Kinds, st.atPE
	scratch := st.scratch
	occBits := st.occBits
	rcArr := st.rc
	presFac := st.presFac
	wrapStamp, wrapPen, wrapCur := st.wrapStamp, st.wrapPen, st.wrapCur
	cur := st.cur
	pq := &st.pq
	var relax int64

	for !pq.empty() {
		c, cs := pq.pop()
		if sc := &scratch[cs]; sc.stamp == -cur || c > sc.dist {
			continue // already settled (negated stamp) or stale entry
		} else {
			sc.stamp = -cur
		}
		if cs == targetState {
			break
		}
		node := cs / int32(width)
		elapsed := int(cs % int32(width))
		for _, e := range g.Succs(node) {
			relax++
			ne := elapsed
			if e.Adv {
				ne++
				if ne > s.delta {
					continue
				}
			}
			ns := e.To*int32(width) + int32(ne)
			var nc float64
			if e.ToFU {
				// FU nodes are route sinks only, and the input pin is
				// not a shared resource: the step is free.
				if e.To != target || ne != s.delta {
					continue
				}
				nc = c
			} else {
				// Cycles still needed from e.To: a register, read port or
				// result can drive a wire out of x this cycle, a write
				// port's value is readable next cycle, and a wire is
				// consumed on arrival or forwarded next cycle.
				x := int(atPE[e.To])
				need := a.MinElapsed(x, q)
				switch kinds[e.To] {
				case mrrg.KindWPort:
					need++
				case mrrg.KindLink:
					if x == q {
						need = 0
					} else {
						need++
					}
				}
				if ne+need > s.delta {
					continue
				}
				var step float64
				if occBits[ns>>6]&(1<<(uint(ns)&63)) != 0 {
					step = 0.01 // the signal already owns this phase
				} else {
					rc := &rcArr[e.To]
					over := float64(1 - int(rc.head)) // usage + 1 - cap
					if over < 0 {
						over = 0
					}
					step = (1 + rc.hist) * (1 + presFac*over)
				}
				if hasWrap && wrapStamp[e.To] == wrapCur {
					step += wrapPen[e.To]
				}
				if e.Express {
					if prefer {
						step *= 0.5
					} else {
						step *= 1.6
					}
				}
				nc = c + step
			}
			sc := &scratch[ns]
			if sc.stamp == -cur {
				continue
			}
			if sc.stamp != cur || nc < sc.dist {
				*sc = dnode{dist: nc, prev: cs, stamp: cur}
				pq.push(nc, ns)
			}
		}
	}
	st.relax += relax
	if st.scratch[targetState].stamp != -st.cur {
		return nil, false
	}
	// Reconstruct.
	var route []int32
	for cs := targetState; cs != -1; cs = st.scratch[cs].prev {
		route = append(route, cs/int32(width))
		if st.scratch[cs].prev == -1 {
			break
		}
	}
	// reverse
	for a, b := 0, len(route)-1; a < b; a, b = a+1, b-1 {
		route[a], route[b] = route[b], route[a]
	}
	return route, true
}

// routeSignal rips up and reroutes every sink of the signal. Unrouted
// sinks are tracked in st.unrouted.
func (st *state) routeSignal(sig *signal) {
	for i := range sig.sinks {
		if sig.routes[i] != nil {
			st.ripupSink(sig, i)
		} else {
			st.unrouted--
		}
		if !st.routeSink(sig, i) {
			st.unrouted++
		}
	}
}

// routeAll routes every signal from scratch and then runs the
// negotiation iterations.
func (st *state) routeAll() {
	// Reset routing state.
	for i := range st.usage {
		st.usage[i] = 0
		st.rc[i] = resCost{head: st.g.Cap[i]}
	}
	st.totalOveruse = 0
	st.unrouted = 0
	st.presFac = 1.5
	st.beginRouting(nil)
	for _, sig := range st.signals {
		for i := range sig.routes {
			sig.routes[i] = nil
		}
		sig.claims = sig.claims[:0]
	}
	for _, sig := range st.signals {
		if st.cancelled() {
			return
		}
		for i := range sig.sinks {
			if !st.routeSink(sig, i) {
				st.unrouted++
			}
		}
	}
	st.pathFinderIterations(st.opts.RouterIters)
}

// pathFinderIterations runs up to k negotiation rounds: bump history on
// overused nodes, then rip up and reroute only the signals touching
// them (plus any unrouted sinks).
func (st *state) pathFinderIterations(k int) {
	for iter := 0; iter < k; iter++ {
		if st.badness() == 0 {
			return
		}
		if st.cancelled() {
			return
		}
		st.pfIters++
		st.presFac = math.Min(st.presFac*1.4, 64)
		for n := range st.usage {
			if int(st.usage[n]) > int(st.g.Cap[n]) {
				st.rc[n].hist += 0.5 * float64(int(st.usage[n])-int(st.g.Cap[n]))
			}
		}
		for _, sig := range st.signals {
			needs := false
			for i := range sig.sinks {
				if sig.routes[i] == nil {
					needs = true
					break
				}
			}
			if !needs {
				width := int32(st.maxDelta + 1)
				for _, c := range sig.claims {
					n := c.state / width
					if int(st.usage[n]) > int(st.g.Cap[n]) {
						needs = true
						break
					}
				}
			}
			if needs {
				st.routeSignal(sig)
			}
		}
	}
}

// badness is the combined infeasibility measure: resource overuse plus
// a large penalty per unroutable sink.
func (st *state) badness() int {
	return st.totalOveruse + 100*st.unrouted
}

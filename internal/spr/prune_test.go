package spr

import (
	"fmt"
	"math"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/dfgen"
	"panorama/internal/difftest"
	"panorama/internal/kernels"
)

// searchSinkUnpruned is searchSink without the reachability prune and
// without the A* bound (h ≡ 0): the plain elapsed-exact Dijkstra the
// production search must agree with on every target cost. It reports
// whether the target was reached and leaves its cost in the scratch;
// keep its cost model in step with searchSink's.
func (st *state) searchSinkUnpruned(sig *signal, i int, hasWrap bool) bool {
	s := sig.sinks[i]
	if s.delta < 0 || s.delta > st.maxDelta {
		return false
	}
	lat := st.d.Nodes[sig.src].Op.Latency()
	srcPE := st.placePE[sig.src]
	start := int32(st.g.ResNode(srcPE, st.placeT[sig.src]+lat))
	target := int32(st.g.FUNode(st.placePE[s.consumer], st.placeT[s.consumer]))
	prefer := st.prefersExpress(sig, s)

	width := st.maxDelta + 1
	st.cur++
	st.pq.reset()
	startState := start * int32(width)
	startCost := st.nodeCost(sig, start, 0)
	st.scratch[startState] = dnode{dist: startCost, prev: -1, stamp: st.cur}
	st.pq.push(startCost, startState)
	targetState := target*int32(width) + int32(s.delta)

	for !st.pq.empty() {
		c, cs := st.pq.pop()
		if sc := &st.scratch[cs]; sc.stamp == -st.cur || c > sc.dist {
			continue
		} else {
			sc.stamp = -st.cur
		}
		if cs == targetState {
			break
		}
		node := cs / int32(width)
		elapsed := int(cs % int32(width))
		for _, e := range st.g.Succs(node) {
			st.relax++
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
				if e.To != target || ne != s.delta {
					continue
				}
				nc = c
			} else {
				step := st.nodeCost(sig, e.To, ne)
				if hasWrap && st.wrapStamp[e.To] == st.wrapCur {
					step += st.wrapPen[e.To]
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
			sc := &st.scratch[ns]
			if sc.stamp == -st.cur {
				continue
			}
			if sc.stamp != st.cur || nc < sc.dist {
				*sc = dnode{dist: nc, prev: cs, stamp: st.cur}
				st.pq.push(nc, ns)
			}
		}
	}
	return st.scratch[targetState].stamp == -st.cur
}

// pruneOracle runs every sink search both ways and tallies the
// disagreements, the A* bound's violations and the relaxations each
// side spent.
type pruneOracle struct {
	searches, mismatches, badBounds int
	relaxFull, relaxPruned          int64
}

// checkBound holds searchSink's A* bound to what makes the search
// exact, on the route the plain Dijkstra just found — an optimal one,
// so the cost still to pay from each of its states is the target's
// cost minus the state's: the bound is never above that remaining
// cost, and it drops across no edge of the route by more than the edge
// costs (consistency). A bound that overshoots only where no cheaper
// path competes leaves every target cost intact and passes the cost
// comparison; it does not pass this.
func (o *pruneOracle) checkBound(t *testing.T, name string, st *state, sig *signal, i int) {
	s := sig.sinks[i]
	h := st.goalBound(sig, s.delta, st.prefersExpress(sig, s))
	width := int32(st.maxDelta + 1)
	target := int32(st.g.FUNode(st.placePE[s.consumer], st.placeT[s.consumer]))*width + int32(s.delta)
	const slack = 1e-9 // float rounding of the differences, far below any step
	total, next := st.scratch[target].dist, int32(-1)
	for cs := target; cs != -1; cs = st.scratch[cs].prev {
		dist, bound := st.scratch[cs].dist, h[cs%width]
		if bound > total-dist+slack ||
			next >= 0 && bound > st.scratch[next].dist-dist+h[next%width]+slack {
			o.badBounds++
			if o.badBounds <= 10 {
				t.Errorf("%s: signal %d sink %d: bound %v at elapsed %d of %d, cost to go %v",
					name, sig.src, i, bound, cs%width, s.delta, total-dist)
			}
		}
		next = cs
	}
}

// targetCost is the settled cost of sig's sink i after a successful
// search.
func (st *state) targetCost(sig *signal, i int) float64 {
	s := sig.sinks[i]
	target := st.g.FUNode(st.placePE[s.consumer], st.placeT[s.consumer])
	return st.scratch[target*(st.maxDelta+1)+s.delta].dist
}

// search runs the unpruned and the pruned search for sig's sink i,
// reports any difference in success or in the bits of the target cost,
// and returns the pruned search's route, which is what the router
// claims.
func (o *pruneOracle) search(t *testing.T, name string, st *state, sig *signal, i int, hasWrap bool) ([]int32, bool) {
	r0 := st.relax
	okFull := st.searchSinkUnpruned(sig, i, hasWrap)
	var full float64
	if okFull {
		full = st.targetCost(sig, i)
		o.checkBound(t, name, st, sig, i)
	}
	r1 := st.relax
	route, ok := st.searchSink(sig, i, hasWrap)
	var pruned float64
	if ok {
		pruned = st.targetCost(sig, i)
	}
	o.relaxFull += r1 - r0
	o.relaxPruned += st.relax - r1
	o.searches++
	if ok != okFull || math.Float64bits(pruned) != math.Float64bits(full) {
		o.mismatches++
		t.Errorf("%s: signal %d sink %d (wrap %v): pruned ok=%v cost=%v, unpruned ok=%v cost=%v",
			name, sig.src, i, hasWrap, ok, pruned, okFull, full)
	}
	return route, ok
}

// exercise routes every sink of a placed state the way the router
// does, with each search run both ways: the initial route, three
// negotiation rounds that raise presFac and the history costs as
// pathFinderIterations does, and one retry per sink under wrap
// penalties on the nodes of its previous route.
func (o *pruneOracle) exercise(t *testing.T, name string, st *state) {
	st.buildSignals()
	route := func(sig *signal, i int, hasWrap bool) {
		st.beginRouting(sig)
		if r, ok := o.search(t, name, st, sig, i, hasWrap); ok && st.firstRevisit(r) < 0 {
			st.claimRoute(sig, i, st.keepRoute(r))
		}
	}
	for _, sig := range st.signals {
		for i := range sig.sinks {
			route(sig, i, false)
		}
	}
	for round := 0; round < 3; round++ {
		st.presFac = math.Min(st.presFac*1.4, 64)
		for n := range st.usage {
			if over := int(st.usage[n]) - int(st.g.Cap[n]); over > 0 {
				st.rc[n].hist += 0.5 * float64(over)
			}
		}
		for _, sig := range st.signals {
			st.beginRouting(sig)
			for i := range sig.sinks {
				st.ripupSink(sig, i)
				route(sig, i, false)
			}
		}
	}
	for _, sig := range st.signals {
		st.beginRouting(sig)
		for i := range sig.sinks {
			prev := sig.routes[i]
			st.ripupSink(sig, i)
			st.wrapCur++
			for _, n := range prev {
				st.wrapStamp[n] = st.wrapCur
				st.wrapPen[n] = 6
			}
			route(sig, i, true)
		}
	}
}

// placeForOracle returns a state with an initial placement at the
// lowest II of the mapper's range that has one, or nil.
func placeForOracle(t *testing.T, d *dfg.Graph, a *arch.CGRA, seed int64) *state {
	r, err := a.IIRange(d, nil, 0, DefaultIISlack)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: seed}
	opts.defaults(d.NumNodes())
	for ii := r.Start; ii <= r.End; ii++ {
		st, err := newState(d, a, ii, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.initialPlacement() {
			return st
		}
	}
	return nil
}

// TestPrunedSearchMatchesUnpruned is the exactness oracle of
// searchSink, the A* search with the reachability prune: over the
// 200-graph differential corpus on 4x4 and the twelve kernels at quick
// scale on 8x8, every sink search of the initial route, three
// negotiation rounds and a wrap-penalised retry must succeed exactly
// when the plain Dijkstra (no prune, h ≡ 0) does, at a bit-identical
// target cost, and the A* bound must be admissible and consistent
// along every route the Dijkstra finds (checkBound). Routes may differ
// on equal-cost ties; costs may not.
func TestPrunedSearchMatchesUnpruned(t *testing.T) {
	const corpusSize = 200
	var o pruneOracle
	a4 := arch.Preset4x4()
	for i := 0; i < corpusSize; i++ {
		seed, p := difftest.CorpusParams(i)
		if st := placeForOracle(t, dfgen.Generate(seed, p), a4, seed); st != nil {
			o.exercise(t, fmt.Sprintf("corpus %d", i), st)
		}
	}
	a8 := arch.Preset8x8()
	for _, spec := range kernels.All() {
		if st := placeForOracle(t, spec.Build(0.25), a8, 1); st != nil {
			o.exercise(t, spec.Name, st)
		}
	}
	if o.searches == 0 || o.relaxPruned == 0 {
		t.Fatal("the oracle ran no search")
	}
	t.Logf("%d searches, %d mismatches, %d bound violations; relaxations %d unpruned, %d pruned (%.2fx fewer)",
		o.searches, o.mismatches, o.badBounds, o.relaxFull, o.relaxPruned, float64(o.relaxFull)/float64(o.relaxPruned))
}

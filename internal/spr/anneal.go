package spr

import "math"

// saRound performs one temperature step of simulated-annealing
// placement repair (Algorithm 2 lines 9-15): congested operations are
// relocated to random feasible slots; moves that do not worsen the
// combined overuse are kept, worse moves are kept with the Boltzmann
// probability. Returns the number of attempted moves.
func (st *state) saRound(temp float64) int {
	steps := 0
	for m := 0; m < st.opts.SAMovesPerTemp && st.badness() > 0; m++ {
		if m%64 == 0 && st.cancelled() {
			break
		}
		v := st.pickCongestedNode()
		if v < 0 {
			break
		}
		st.saMoves++
		if st.tryMove(v, temp) {
			st.saAccepts++
		}
		steps++
	}
	return steps
}

// pickCongestedNode selects a DFG node implicated in the current
// congestion: the producer or a consumer of a signal that either has an
// unrouted sink or occupies an overused resource. Falls back to a
// uniformly random node.
func (st *state) pickCongestedNode() int {
	var cands []int
	seen := make(map[int]bool)
	add := func(v int) {
		if !seen[v] {
			seen[v] = true
			cands = append(cands, v)
		}
	}
	for _, sig := range st.signals {
		bad := false
		for _, r := range sig.routes {
			if r == nil {
				bad = true
				break
			}
		}
		if !bad {
			width := int32(st.maxDelta + 1)
			for _, c := range sig.claims {
				n := c.state / width
				if int(st.usage[n]) > int(st.g.Cap[n]) {
					bad = true
					break
				}
			}
		}
		if bad {
			add(sig.src)
			for _, s := range sig.sinks {
				add(s.consumer)
			}
		}
	}
	if len(cands) == 0 {
		if st.d.NumNodes() == 0 {
			return -1
		}
		return st.rng.Intn(st.d.NumNodes())
	}
	return cands[st.rng.Intn(len(cands))]
}

// affectedSignals returns the signals whose routes depend on v's
// placement: the one v produces and those it consumes.
func (st *state) affectedSignals(v int) []*signal {
	var sigs []*signal
	seen := make(map[int]bool)
	if si := st.sigOf[v]; si >= 0 {
		seen[si] = true
		sigs = append(sigs, st.signals[si])
	}
	for _, ei := range st.d.InEdges(v) {
		p := st.d.Edges[ei].From
		if si := st.sigOf[p]; si >= 0 && !seen[si] {
			seen[si] = true
			sigs = append(sigs, st.signals[si])
		}
	}
	return sigs
}

// tryMove relocates v to a random feasible slot, reroutes the affected
// signals, and accepts or reverts per the annealing criterion. Reports
// whether the move was accepted.
func (st *state) tryMove(v int, temp float64) bool {
	oldPE, oldT := st.placePE[v], st.placeT[v]
	before := st.badness()

	st.unplace(v)
	pe, t, ok := st.bestCandidate(v, true)
	if !ok {
		st.place(v, oldPE, oldT)
		return false
	}
	st.place(v, pe, t)

	affected := st.affectedSignals(v)
	saved := make([][][]int32, len(affected))
	for i, sig := range affected {
		saved[i] = append([][]int32(nil), sig.routes...)
	}
	st.refreshSignalDeltas(affected)
	for _, sig := range affected {
		st.routeSignal(sig)
	}
	after := st.badness()

	if after <= before || st.rng.Float64() < math.Exp(-float64(after-before)/temp) {
		return true // accept
	}
	// Revert.
	st.unplace(v)
	st.place(v, oldPE, oldT)
	st.refreshSignalDeltas(affected)
	for i, sig := range affected {
		st.restoreRoutes(sig, saved[i])
	}
	return false
}

// refreshSignalDeltas recomputes the slack of every sink of the given
// signals from the current schedule.
func (st *state) refreshSignalDeltas(sigs []*signal) {
	for _, sig := range sigs {
		lat := st.d.Nodes[sig.src].Op.Latency()
		for i := range sig.sinks {
			s := &sig.sinks[i]
			e := st.d.Edges[s.edge]
			s.delta = st.placeT[s.consumer] + e.Dist*st.ii - st.placeT[sig.src] - lat
		}
	}
}

// restoreRoutes replaces the signal's current routes with a previously
// saved snapshot, keeping usage and unrouted bookkeeping consistent.
func (st *state) restoreRoutes(sig *signal, saved [][]int32) {
	for i := range sig.sinks {
		if sig.routes[i] != nil {
			st.ripupSink(sig, i)
		} else {
			st.unrouted--
		}
	}
	for i, r := range saved {
		if r == nil {
			st.unrouted++
		} else {
			st.claimRoute(sig, i, r)
		}
	}
}

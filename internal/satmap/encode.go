package satmap

import (
	"context"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/sat"
)

// pairwiseMax is the largest at-most-one group encoded pairwise; larger
// groups use the sequential (Sinz ladder) encoding with n-1 aux vars.
const pairwiseMax = 6

// encoder holds the variable layout and clause emitter for one
// (DFG, arch, II) instance.
//
// Variable families (all 1-based, allocated in this order):
//
//	p[v][ci]      — node v placed on its ci-th candidate PE
//	s[v][k]       — node v scheduled at cycle asap[v]+k
//	y[v][ci][σ]   — v occupies FU slot σ of candidate PE ci
//	z[v][ci][σ]   — v's result register occupies slot σ of PE ci
//	                (producers only: nodes with at least one out-edge)
//	aux           — sequential at-most-one ladder variables
//
// y and z are one-directional consequences of (p ∧ s): they can be
// spuriously true in a model, which only tightens the at-most-one
// groups, so soundness and completeness are preserved.
type encoder struct {
	d      *dfg.Graph
	a      *arch.CGRA
	ii     int
	window int

	asap     []int
	cand     [][]int // node -> sorted candidate PEs
	producer []bool  // node has >= 1 outgoing DFG edge
	maxNeed  int     // 1 + the largest finite arch.MinElapsed

	pVar [][]int
	sVar [][]int
	yVar [][]int // v -> ci*ii+σ
	zVar [][]int // producers only, same layout

	nVars      int
	auxNext    int
	clauses    int
	maxClauses int

	seed   int64
	budget int64
}

// newEncoder lays out variables for one II. It returns a non-empty
// status ("infeasible") instead of an encoder when some node has no
// candidate PE under the memory/cluster restriction. It polls ctx
// between layout phases: on large fabrics the layout itself costs
// milliseconds, and a caller whose deadline fired or whose client went
// away must not pay for it.
func newEncoder(ctx context.Context, d *dfg.Graph, a *arch.CGRA, opts Options, ii int) (*encoder, string, error) {
	e := &encoder{
		d:      d,
		a:      a,
		ii:     ii,
		window: ii + windowSlack,
		asap:   d.ASAP(),
		seed:   opts.Seed,
	}
	e.budget = opts.MaxConflictsPerII
	if e.budget == 0 {
		e.budget = DefaultMaxConflictsPerII
	}
	e.maxClauses = opts.MaxClauses
	if e.maxClauses == 0 {
		e.maxClauses = DefaultMaxClauses
	}

	n := d.NumNodes()
	e.cand = make([][]int, n)
	for v := 0; v < n; v++ {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		var allowedCl []int
		if opts.AllowedClusters != nil {
			allowedCl = opts.AllowedClusters[v]
		}
		mem := d.Nodes[v].Op.IsMem()
		for pe := 0; pe < a.NumPEs(); pe++ {
			if mem && !a.PEs[pe].MemCapable {
				continue
			}
			if allowedCl != nil {
				ok := false
				cid := a.ClusterOf(pe)
				for _, c := range allowedCl {
					if c == cid {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
			}
			e.cand[v] = append(e.cand[v], pe)
		}
		if len(e.cand[v]) == 0 {
			return nil, "infeasible", nil
		}
	}
	e.producer = make([]bool, n)
	for _, de := range d.Edges {
		e.producer[de.From] = true
	}
	// Reachability clauses are emitted for delta < maxNeed, so that the
	// worst finite pair is still constrained.
	for p := 0; p < a.NumPEs(); p++ {
		for q := 0; q < a.NumPEs(); q++ {
			if me := a.MinElapsed(p, q); me != arch.Unreachable && me >= e.maxNeed {
				e.maxNeed = me + 1
			}
		}
	}

	// Allocate the fixed variable families.
	next := 1
	alloc := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = next
			next++
		}
		return ids
	}
	e.pVar = make([][]int, n)
	for v := 0; v < n; v++ {
		e.pVar[v] = alloc(len(e.cand[v]))
	}
	e.sVar = make([][]int, n)
	for v := 0; v < n; v++ {
		e.sVar[v] = alloc(e.window)
	}
	e.yVar = make([][]int, n)
	for v := 0; v < n; v++ {
		e.yVar[v] = alloc(len(e.cand[v]) * ii)
	}
	e.zVar = make([][]int, n)
	for v := 0; v < n; v++ {
		if e.producer[v] {
			e.zVar[v] = alloc(len(e.cand[v]) * ii)
		}
	}

	// Count the ladder aux vars the build pass will consume, in the
	// same deterministic group order build emits them.
	aux := 0
	ladder := func(groupSize int) {
		if groupSize > pairwiseMax {
			aux += groupSize - 1
		}
	}
	for v := 0; v < n; v++ {
		ladder(len(e.cand[v]))
	}
	for v := 0; v < n; v++ {
		ladder(e.window)
	}
	for pe := 0; pe < a.NumPEs(); pe++ {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		nAt, nProd := e.groupSizes(pe)
		for s := 0; s < ii; s++ {
			ladder(nAt)
		}
		for s := 0; s < ii; s++ {
			ladder(nProd)
		}
	}
	e.auxNext = next
	e.nVars = next - 1 + aux
	return e, "", nil
}

// groupSizes returns how many nodes (and how many producers) have pe
// among their candidates — the sizes of pe's exclusivity and
// result-slot at-most-one groups.
func (e *encoder) groupSizes(pe int) (nodes, producers int) {
	for v := 0; v < e.d.NumNodes(); v++ {
		for _, p := range e.cand[v] {
			if p == pe {
				nodes++
				if e.producer[v] {
					producers++
				}
				break
			}
		}
	}
	return nodes, producers
}

// amoClauses estimates the clause count of one at-most-one group.
func amoClauses(n int) int {
	if n <= 1 {
		return 0
	}
	if n <= pairwiseMax {
		return n * (n - 1) / 2
	}
	return 3 * n
}

// estimateClauses upper-bounds the encoding size without building it,
// so oversized instances are rejected before any allocation. Like
// build, it polls ctx between loop groups (the per-edge pass iterates
// window²·candidates times on large fabrics).
func (e *encoder) estimateClauses(ctx context.Context) (int, error) {
	n := e.d.NumNodes()
	est := 0
	for v := 0; v < n; v++ {
		est += 1 + amoClauses(len(e.cand[v])) // exactly-one placement
		est += 1 + amoClauses(e.window)       // exactly-one schedule
		est += len(e.cand[v]) * e.window      // y definitions
		if e.producer[v] {
			est += len(e.cand[v]) * e.window // z definitions
		}
	}
	for pe := 0; pe < e.a.NumPEs(); pe++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		nAt, nProd := e.groupSizes(pe)
		est += e.ii * (amoClauses(nAt) + amoClauses(nProd))
	}
	for _, de := range e.d.Edges {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		lat := e.d.Nodes[de.From].Op.Latency()
		pairs := 0
		for ku := 0; ku < e.window; ku++ {
			for kv := 0; kv < e.window; kv++ {
				delta := e.asap[de.To] + kv + de.Dist*e.ii - e.asap[de.From] - ku - lat
				switch {
				case delta < 0:
					pairs++
				case delta < e.maxNeed:
					pairs += len(e.cand[de.From])
				}
			}
		}
		est += pairs
		est += len(e.cand[de.From]) * len(e.cand[de.To]) // unreachable-pair clauses
	}
	return est, nil
}

// build constructs the solver and emits every eager clause family. It
// polls ctx between clause groups so a cancelled caller (a service
// deadline, a dead client) never waits out a large emission.
func (e *encoder) build(ctx context.Context) (*sat.Solver, error) {
	s := sat.New(e.nVars, sat.Options{Seed: e.seed, MaxConflicts: e.budget})
	// The y/z consequence vars are biased false so first models don't
	// carry spurious occupancy that tightens the AMO groups. Placement
	// and schedule phases stay seed-random: experiments with biasing
	// schedules toward the window start packed the models into the same
	// cycles and made congestion worse, not better.
	for v := 0; v < e.d.NumNodes(); v++ {
		for _, id := range e.yVar[v] {
			s.SetPhase(id, false)
		}
		for _, id := range e.zVar[v] {
			s.SetPhase(id, false)
		}
	}
	add := func(lits ...sat.Lit) {
		s.AddClause(lits...)
		e.clauses++
	}
	amo := func(lits []sat.Lit) {
		if len(lits) <= 1 {
			return
		}
		if len(lits) <= pairwiseMax {
			for i := 0; i < len(lits); i++ {
				for j := i + 1; j < len(lits); j++ {
					add(lits[i].Neg(), lits[j].Neg())
				}
			}
			return
		}
		// Sequential (Sinz) encoding: aux[i] means "some lit <= i is true".
		n := len(lits)
		aux := make([]sat.Lit, n-1)
		for i := range aux {
			aux[i] = sat.PosLit(e.auxNext)
			e.auxNext++
		}
		add(lits[0].Neg(), aux[0])
		for i := 1; i < n-1; i++ {
			add(lits[i].Neg(), aux[i])
			add(aux[i-1].Neg(), aux[i])
			add(lits[i].Neg(), aux[i-1].Neg())
		}
		add(lits[n-1].Neg(), aux[n-2].Neg())
	}
	exactlyOne := func(vars []int) {
		lits := make([]sat.Lit, len(vars))
		for i, v := range vars {
			lits[i] = sat.PosLit(v)
		}
		add(lits...)
		amo(lits)
	}

	n := e.d.NumNodes()
	for v := 0; v < n; v++ {
		exactlyOne(e.pVar[v])
	}
	for v := 0; v < n; v++ {
		exactlyOne(e.sVar[v])
	}

	// FU-slot occupancy consequences and result-register-slot
	// consequences: (p ∧ s) → y / z.
	for v := 0; v < n; v++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lat := e.d.Nodes[v].Op.Latency()
		for ci := range e.cand[v] {
			p := sat.NegLit(e.pVar[v][ci])
			for k := 0; k < e.window; k++ {
				slot := (e.asap[v] + k) % e.ii
				add(p, sat.NegLit(e.sVar[v][k]), sat.PosLit(e.yVar[v][ci*e.ii+slot]))
				if e.producer[v] {
					dslot := (e.asap[v] + k + lat) % e.ii
					add(p, sat.NegLit(e.sVar[v][k]), sat.PosLit(e.zVar[v][ci*e.ii+dslot]))
				}
			}
		}
	}
	// At most one node per FU slot, at most one producer per result
	// register slot (mirrors verify's exclusivity and res capacity).
	for pe := 0; pe < e.a.NumPEs(); pe++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for slot := 0; slot < e.ii; slot++ {
			var ys, zs []sat.Lit
			for v := 0; v < n; v++ {
				for ci, p := range e.cand[v] {
					if p != pe {
						continue
					}
					ys = append(ys, sat.PosLit(e.yVar[v][ci*e.ii+slot]))
					if e.producer[v] {
						zs = append(zs, sat.PosLit(e.zVar[v][ci*e.ii+slot]))
					}
					break
				}
			}
			amo(ys)
			amo(zs)
		}
	}

	// Dependence timing and routing reachability (mirrors verify's
	// timing family and the existence half of its route family;
	// congestion is handled lazily by the CEGAR loop).
	for _, de := range e.d.Edges {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lat := e.d.Nodes[de.From].Op.Latency()
		u, w := de.From, de.To
		// Statically unreachable PE pairs can never carry this edge.
		for ci, pu := range e.cand[u] {
			for cj, pw := range e.cand[w] {
				if e.a.MinElapsed(pu, pw) == arch.Unreachable {
					add(sat.NegLit(e.pVar[u][ci]), sat.NegLit(e.pVar[w][cj]))
				}
			}
		}
		for ku := 0; ku < e.window; ku++ {
			for kv := 0; kv < e.window; kv++ {
				delta := e.asap[w] + kv + de.Dist*e.ii - e.asap[u] - ku - lat
				if delta < 0 {
					add(sat.NegLit(e.sVar[u][ku]), sat.NegLit(e.sVar[w][kv]))
					continue
				}
				if delta >= e.maxNeed {
					continue // every (finite) pair is reachable
				}
				for ci, pu := range e.cand[u] {
					lits := []sat.Lit{
						sat.NegLit(e.sVar[u][ku]),
						sat.NegLit(e.sVar[w][kv]),
						sat.NegLit(e.pVar[u][ci]),
					}
					all := true
					for cj, pw := range e.cand[w] {
						if e.a.MinElapsed(pu, pw) <= delta {
							lits = append(lits, sat.PosLit(e.pVar[w][cj]))
						} else {
							all = false
						}
					}
					if !all {
						add(lits...)
					}
				}
			}
		}
	}
	return s, nil
}

// decode reads the placement and schedule out of a satisfying model.
func (e *encoder) decode(s *sat.Solver) (placePE, placeT []int) {
	n := e.d.NumNodes()
	placePE = make([]int, n)
	placeT = make([]int, n)
	for v := 0; v < n; v++ {
		placePE[v] = e.cand[v][0]
		for ci, id := range e.pVar[v] {
			if s.Value(id) {
				placePE[v] = e.cand[v][ci]
				break
			}
		}
		placeT[v] = e.asap[v]
		for k, id := range e.sVar[v] {
			if s.Value(id) {
				placeT[v] = e.asap[v] + k
				break
			}
		}
	}
	return placePE, placeT
}

// blockModel adds a clause forbidding the placement+schedule
// projection of the current model onto the given core nodes — the
// CEGAR refinement step after a routing failure. The route extractor
// supplies the core (the congestion neighbourhood of the failure); a
// nil core blocks the full model.
func (e *encoder) blockModel(s *sat.Solver, placePE, placeT []int, core []bool) {
	n := e.d.NumNodes()
	var lits []sat.Lit
	for v := 0; v < n; v++ {
		if core != nil && !core[v] {
			continue
		}
		for ci, pe := range e.cand[v] {
			if pe == placePE[v] {
				lits = append(lits, sat.NegLit(e.pVar[v][ci]))
				break
			}
		}
		lits = append(lits, sat.NegLit(e.sVar[v][placeT[v]-e.asap[v]]))
	}
	s.AddClause(lits...)
	e.clauses++
}

// diversifyPhases re-randomises the solver's saved phases for the
// placement and schedule variables from a fresh splitmix64 stream.
// Phase saving makes consecutive CEGAR models near-identical — the
// solver flips the blocked core and keeps everything else — so a
// congested neighbourhood can absorb the whole refinement budget.
// Re-seeding phases every few rounds restarts the model stream
// somewhere else entirely; it changes which model the solver reports,
// never whether one exists. The y/z consequence vars stay biased false
// (see build).
func (e *encoder) diversifyPhases(s *sat.Solver, round int) {
	x := uint64(e.seed)*0x9e3779b97f4a7c15 + uint64(round+1)
	next := func() bool {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return z&1 == 1
	}
	for v := 0; v < e.d.NumNodes(); v++ {
		for _, id := range e.pVar[v] {
			s.SetPhase(id, next())
		}
		for _, id := range e.sVar[v] {
			s.SetPhase(id, next())
		}
	}
}

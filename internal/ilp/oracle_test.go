package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The equivalence oracle. refSolver is the solver as it stood before
// propagation became event-driven and before it kept activities: the
// same dfs (bound, branching variable, value order), over the
// full-sweep fixpoint loop kept verbatim below. It sums every
// constraint's minimum, the objective bound and the value order afresh
// where it needs them (only pickBranchVar is the live method), so it
// never reads the live solver's incremental state. The live solver
// must explore the very same tree: equal Status, Feasible, Objective,
// Assign and Nodes on every model and under every node budget.

// refPassCap is the sweep cap of the old loop. Equivalence is defined
// only below it: a capped sweep stops short of the fixpoint, which the
// event-driven queue never does.
const refPassCap = 16

type refSolver struct {
	solver
	maxPasses int // largest number of sweeps one node needed
	examined  int // constraints visited, the reference's Propagations
}

func refSolve(m *Model, opts Options) (*Result, *refSolver) {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 2_000_000
	}
	s := &refSolver{solver: solver{
		m:        m,
		lo:       make([]int, len(m.vars)),
		hi:       make([]int, len(m.vars)),
		best:     math.MaxInt,
		maxNodes: opts.MaxNodes,
		ctx:      context.Background(),
	}}
	for i, v := range m.vars {
		s.lo[i], s.hi[i] = v.lo, v.hi
	}
	s.dfs()
	res := &Result{Nodes: s.nodes, Propagations: s.examined}
	if s.feasible {
		res.Feasible = true
		res.Objective = s.best + m.objC
		res.Assign = s.bestAsg
	}
	switch {
	case s.nodes >= s.maxNodes:
		res.Status = Limit
	case s.feasible:
		res.Status = Optimal
	default:
		res.Status = Infeasible
	}
	return res, s
}

// dfs is the parent commit's dfs without the wall-clock checks.
func (s *refSolver) dfs() {
	if s.nodes >= s.maxNodes {
		return
	}
	s.nodes++
	if !s.propagate() {
		return
	}
	if s.objLowerBound() >= s.best && s.feasible {
		return
	}
	branch := s.pickBranchVar()
	if branch < 0 {
		obj := 0
		for _, t := range s.m.obj {
			obj += t.Coef * s.lo[t.Var]
		}
		if obj < s.best || !s.feasible {
			if obj < s.best {
				s.best = obj
			}
			s.feasible = true
			s.bestAsg = append([]int(nil), s.lo...)
		}
		return
	}
	n, base := len(s.lo), len(s.trail)
	s.trail = append(append(s.trail, s.lo...), s.hi...)
	for _, val := range s.valueOrder(branch) {
		s.lo[branch], s.hi[branch] = val, val
		s.dfs()
		copy(s.lo, s.trail[base:base+n])
		copy(s.hi, s.trail[base+n:base+2*n])
		if s.nodes >= s.maxNodes {
			break
		}
	}
	s.trail = s.trail[:base]
}

// propagate is the parent commit's loop: sweep every constraint until
// a sweep changes nothing, at most refPassCap times.
func (s *refSolver) propagate() bool {
	for pass := 0; pass < refPassCap; pass++ {
		if pass+1 > s.maxPasses {
			s.maxPasses = pass + 1
		}
		changed := false
		for ci := range s.m.cons {
			s.examined++
			c := &s.m.cons[ci]
			minSum := 0
			for _, t := range c.terms {
				minSum += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
			}
			if minSum > c.rhs {
				return false
			}
			for _, t := range c.terms {
				if t.Coef == 0 {
					continue
				}
				own := minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
				residual := c.rhs - (minSum - own)
				if t.Coef > 0 {
					ub := floorDiv(residual, t.Coef)
					if ub < s.hi[t.Var] {
						s.hi[t.Var] = ub
						if s.lo[t.Var] > ub {
							return false
						}
						changed = true
					}
				} else {
					lb := ceilDiv(residual, t.Coef)
					if lb > s.lo[t.Var] {
						s.lo[t.Var] = lb
						if lb > s.hi[t.Var] {
							return false
						}
						changed = true
					}
				}
			}
		}
		if !changed {
			return true
		}
	}
	return true
}

// objLowerBound returns an optimistic (minimum possible) objective for
// the current domains.
func (s *refSolver) objLowerBound() int {
	lb := 0
	for _, t := range s.m.obj {
		lb += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
	}
	return lb
}

// valueOrder enumerates the domain of v, trying the objective-friendly
// end first.
func (s *refSolver) valueOrder(v int) []int {
	coef := 0
	for _, t := range s.m.obj {
		if int(t.Var) == v {
			coef += t.Coef
		}
	}
	n := s.hi[v] - s.lo[v] + 1
	vals := make([]int, n)
	if coef > 0 {
		for i := range vals {
			vals[i] = s.lo[v] + i
		}
	} else {
		for i := range vals {
			vals[i] = s.hi[v] - i
		}
	}
	return vals
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ceilDiv returns ceil(a/b) for b != 0.
func ceilDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// randomModel draws a small model with everything the propagators
// distinguish: both coefficient signs, zero coefficients, equalities
// (two opposed rows), AbsVar pairs, a variable repeated inside one
// constraint, and right-hand sides tight enough that about a third of
// the models are infeasible.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	nv := 2 + rng.Intn(7)
	ids := make([]VarID, nv)
	for i := range ids {
		lo := rng.Intn(5) - 2
		ids[i] = m.IntVar(fmt.Sprintf("x%d", i), lo, lo+rng.Intn(5))
	}
	expr := func() Expr {
		var e Expr
		for k := 1 + rng.Intn(4); k > 0; k-- {
			e = e.Plus(ids[rng.Intn(nv)], rng.Intn(7)-3) // repeats and zeros allowed
		}
		return e.PlusConst(rng.Intn(5) - 2)
	}
	var obj Expr
	for _, id := range ids {
		if rng.Intn(2) == 0 {
			obj = obj.Plus(id, rng.Intn(9)-4)
		}
	}
	for nc := 1 + rng.Intn(8); nc > 0; nc-- {
		e, rhs := expr(), rng.Intn(13)-4
		switch rng.Intn(6) {
		case 0:
			m.AddEQ(e, rhs, "eq")
		case 1:
			m.AddGE(e, rhs, "ge")
		case 2:
			obj = obj.Plus(m.AbsVar("abs", e, 40), 1+rng.Intn(3))
		default:
			m.AddLE(e, rhs, "le")
		}
	}
	m.Minimize(obj)
	return m
}

// splitShaped draws a model of the shape clustermap's column split
// builds: binary stay variables, an absolute deviation of their weighted
// sum from a target, one cut variable per edge, cardinality bounds, and
// the big-M fork constraints on multi-degree nodes.
func splitShaped(rng *rand.Rand) *Model {
	m := NewModel()
	n := 6 + rng.Intn(9)
	stay := make([]VarID, n)
	var size, count Expr
	total := 0
	for i := range stay {
		stay[i] = m.Binary(fmt.Sprintf("stay_%d", i))
		w := 1 + rng.Intn(9)
		size, count, total = size.Plus(stay[i], w), count.Plus(stay[i], 1), total+w
	}
	target := total / (2 + rng.Intn(3))
	obj := NewExpr(Term{m.AbsVar("dev", size.PlusConst(-target), total+target), 3})
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				cut := m.AbsVar("cut", NewExpr(Term{stay[i], 1}, Term{stay[j], -1}), 1)
				obj = obj.Plus(cut, 1+rng.Intn(4))
				adj[i], adj[j] = append(adj[i], j), append(adj[j], i)
			}
		}
	}
	m.Minimize(obj)
	m.AddGE(count, 1, "stay nonempty")
	m.AddLE(count, n-1-rng.Intn(3), "push covers rows")
	zeta := rng.Intn(3)
	eta := 2*n + 2*zeta + 4
	for v, ws := range adj {
		if len(ws) < 2 {
			continue
		}
		var e Expr
		for _, w := range ws {
			e = e.Plus(stay[w], 1)
		}
		e = e.Plus(stay[v], len(ws)-eta)
		m.AddLE(e, zeta, "fork-pushed")
		m.AddGE(e, 2*len(ws)-zeta-eta, "fork-stay")
	}
	return m
}

// rowShaped draws a model of the shape clustermap's row scatter builds,
// the one that explores most of the pipeline's nodes: binary v_i_c
// (node i covers column c) with an equality on each node's span, the
// covered-gap-covered contiguity triples, per-column capacity rows,
// AbsVar column balance with aux domains far wider than the load, the
// scaled centre distance of each free pair (whose column-0 terms have
// coefficient zero), and fixed-partner distances as objective terms on
// the v_i_c themselves. About one model in twenty is infeasible, as a
// row with too little capacity is.
func rowShaped(rng *rand.Rand) *Model {
	m := NewModel()
	k, c := 2+rng.Intn(3), 3+rng.Intn(3)
	v := make([][]VarID, k)
	spans, share := make([]int, k), make([]int, k)
	load := 0
	for i := range v {
		spans[i], share[i] = 1+rng.Intn(c), 1+rng.Intn(6)
		load += share[i] * spans[i]
		v[i] = make([]VarID, c)
		var span Expr
		for col := range v[i] {
			v[i][col] = m.Binary(fmt.Sprintf("v_%d_%d", i, col))
			span = span.Plus(v[i][col], 1)
		}
		m.AddEQ(span, spans[i], "span")
		for c1 := 0; c1 < c; c1++ {
			for c2 := c1 + 1; c2 < c; c2++ {
				for c3 := c2 + 1; c3 < c; c3++ {
					m.AddLE(NewExpr(Term{v[i][c1], 1}, Term{v[i][c2], -1}, Term{v[i][c3], 1}), 1, "contig")
				}
			}
		}
	}
	var obj Expr
	target := load / c
	capacity := target + 2 + rng.Intn(8)
	for col := 0; col < c; col++ {
		var e Expr
		for i := range v {
			e = e.Plus(v[i][col], share[i])
		}
		m.AddLE(e, capacity, "capacity")
		obj = obj.Plus(m.AbsVar("bal", e.PlusConst(-target), load+target), 3)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			var e Expr
			for col := 0; col < c; col++ {
				e = e.Plus(v[i][col], col*spans[j]).Plus(v[j][col], -col*spans[i])
			}
			obj = obj.Plus(m.AbsVar("d", e, (c-1)*spans[i]*spans[j]+1), 1+rng.Intn(3))
		}
	}
	for i := range v {
		if rng.Intn(2) == 0 {
			continue
		}
		partner, weight := rng.Intn(c), 1+rng.Intn(3)
		for col := 0; col < c; col++ {
			if d := col - partner; d != 0 {
				obj = obj.Plus(v[i][col], weight*max(d, -d))
			}
		}
	}
	m.Minimize(obj)
	return m
}

func TestPropagationMatchesFullSweepOracle(t *testing.T) {
	check := func(t *testing.T, name string, m *Model) (got, want int) {
		t.Helper()
		for _, budget := range []int{1, 50, 0} {
			opts := Options{MaxNodes: budget}
			ref, rs := refSolve(m, opts)
			if rs.maxPasses >= refPassCap {
				t.Fatalf("%s: the reference needed %d sweeps at one node; equivalence is only defined below the cap", name, rs.maxPasses)
			}
			res := m.Solve(opts)
			if res.Status != ref.Status || res.Feasible != ref.Feasible || res.Objective != ref.Objective ||
				!reflect.DeepEqual(res.Assign, ref.Assign) || res.Nodes != ref.Nodes {
				t.Fatalf("%s, MaxNodes %d: event-driven %+v, full sweep %+v", name, budget, res, ref)
			}
			if res.Propagations > ref.Propagations {
				t.Fatalf("%s, MaxNodes %d: examined %d constraints, the full sweep %d", name, budget, res.Propagations, ref.Propagations)
			}
			got, want = got+res.Propagations, want+ref.Propagations
		}
		return got, want
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20220710))
		status := map[Status]int{}
		for i := 0; i < 2500; i++ {
			m := randomModel(rng)
			check(t, fmt.Sprintf("model %d", i), m)
			status[m.Solve(Options{}).Status]++
		}
		if status[Infeasible] < 250 || status[Optimal] < 250 {
			t.Fatalf("the generator should mix feasible and infeasible models, got %v", status)
		}
	})
	t.Run("clustermap-shaped", func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		got, want := 0, 0
		for i := 0; i < 150; i++ {
			g, w := check(t, fmt.Sprintf("split %d", i), splitShaped(rng))
			got, want = got+g, want+w
		}
		t.Logf("constraints examined: event-driven %d, full sweep %d (%.1fx fewer)", got, want, float64(want)/float64(got))
	})
	t.Run("rowscatter-shaped", func(t *testing.T) {
		rng := rand.New(rand.NewSource(50))
		status := map[Status]int{}
		for i := 0; i < 150; i++ {
			m := rowShaped(rng)
			check(t, fmt.Sprintf("row %d", i), m)
			status[m.Solve(Options{}).Status]++
		}
		t.Logf("statuses %v", status)
		if status[Infeasible] < 5 || status[Optimal] < 50 {
			t.Fatalf("the generator should mix feasible and infeasible rows, got %v", status)
		}
	})
}

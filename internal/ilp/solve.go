package ilp

import (
	"context"
	"fmt"
	"math"

	"panorama/internal/faultinject"
)

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	// Optimal: the returned assignment is a proven optimum.
	Optimal Status = iota
	// Infeasible: no assignment satisfies the constraints.
	Infeasible
	// Limit: a budget fired — the node budget or the caller's
	// context; Result holds the best incumbent found so far (Feasible
	// reports whether one exists).
	Limit
)

// String returns the status in lower case: "optimal", "infeasible" or
// "limit", the label values of panorama_ilp_solves_total.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Limit:
		return "limit"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Options tunes the search.
type Options struct {
	// MaxNodes is the branch-and-bound node budget (default
	// 2_000_000). It is effort, not time, so it has anytime semantics:
	// an exhausted solve returns its best incumbent with Status Limit,
	// the same one on every run.
	MaxNodes int
}

// Result is the outcome of a solve.
type Result struct {
	Status       Status
	Feasible     bool  // an incumbent assignment exists
	Objective    int   // objective of the incumbent (valid when Feasible)
	Assign       []int // variable values of the incumbent (valid when Feasible)
	Nodes        int   // nodes explored
	Propagations int   // constraints examined by bound propagation, the work below a node
}

// Value returns the incumbent value of v.
func (r *Result) Value(v VarID) int { return r.Assign[v] }

type solver struct {
	m        *Model
	lo, hi   []int
	trail    []int // lo then hi of every open node, root first; reused, so a solve allocates per depth reached, not per node
	best     int
	bestAsg  []int
	feasible bool
	nodes    int
	maxNodes int

	// watchLo[v] lists the constraints whose minimum reads lo[v] (v has a
	// positive coefficient there), watchHi[v] those reading hi[v]; queue
	// is the FIFO of constraints to examine, queued flags its members.
	watchLo, watchHi [][]int32
	queue            []int32
	queued           []bool
	props            int // constraints examined

	ctx     context.Context
	stopped bool // ctx fired mid-search
}

// deadlineCheckInterval bounds how many branch-and-bound nodes may be
// explored between context checks; it caps the overrun past a deadline
// at the cost of that many propagation passes (well under a
// millisecond on the CDG-sized instances this solver sees).
const deadlineCheckInterval = 1024

// Solve runs branch-and-bound and returns the best assignment.
func (m *Model) Solve(opts Options) *Result {
	return m.SolveCtx(context.Background(), opts)
}

// SolveCtx is Solve with cancellation and deadline awareness: a fired
// context stops the search like an exhausted node budget, with the
// best feasible incumbent found so far and Status Limit. Such an
// incumbent depends on wall time; callers that need a pure result
// check ctx.Err() before using it.
func (m *Model) SolveCtx(ctx context.Context, opts Options) *Result {
	if err := faultinject.Fire(faultinject.SiteILPSolve); err != nil {
		// An injected fault is indistinguishable from an instantly
		// expired budget: Limit with no incumbent.
		res := &Result{Status: Limit}
		record(ctx, m, res)
		return res
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 2_000_000
	}
	s := &solver{
		m:        m,
		lo:       make([]int, len(m.vars)),
		hi:       make([]int, len(m.vars)),
		best:     math.MaxInt,
		maxNodes: opts.MaxNodes,
		ctx:      ctx,
	}
	for i, v := range m.vars {
		s.lo[i], s.hi[i] = v.lo, v.hi
	}
	s.watch()
	s.checkBudgets() // a pre-expired budget must not start the search
	s.dfs(-1)

	res := &Result{Nodes: s.nodes, Propagations: s.props}
	if s.feasible {
		res.Feasible = true
		res.Objective = s.best + m.objC
		res.Assign = s.bestAsg
	}
	switch {
	case s.stopped || s.nodes >= s.maxNodes:
		res.Status = Limit
	case s.feasible:
		res.Status = Optimal
	default:
		res.Status = Infeasible
	}
	record(ctx, m, res)
	return res
}

// checkBudgets flips stopped once the context has fired.
func (s *solver) checkBudgets() {
	if s.ctx.Err() != nil {
		s.stopped = true
	}
}

// watch builds the per-variable watch lists, once per solve.
func (s *solver) watch() {
	s.watchLo = make([][]int32, len(s.lo))
	s.watchHi = make([][]int32, len(s.lo))
	s.queued = make([]bool, len(s.m.cons))
	for ci, c := range s.m.cons {
		for _, t := range c.terms {
			if t.Coef > 0 {
				s.watchLo[t.Var] = append(s.watchLo[t.Var], int32(ci))
			} else if t.Coef < 0 {
				s.watchHi[t.Var] = append(s.watchHi[t.Var], int32(ci))
			}
		}
	}
}

// enqueue marks the constraints cs for re-examination.
func (s *solver) enqueue(cs []int32) {
	for _, ci := range cs {
		if !s.queued[ci] {
			s.queued[ci] = true
			s.queue = append(s.queue, ci)
		}
	}
}

// dfs explores the current node: propagate, bound, branch. branched is
// the variable the parent just fixed (-1 at the root, which examines
// every constraint): the parent left all constraints at their fixpoint,
// so only the readers of a bound the fixing moved have anything to say.
func (s *solver) dfs(branched int) {
	if s.stopped || s.nodes >= s.maxNodes {
		return
	}
	s.nodes++
	if s.nodes%deadlineCheckInterval == 0 {
		if s.checkBudgets(); s.stopped {
			return
		}
	}
	if branched < 0 {
		for ci := range s.m.cons {
			s.queue, s.queued[ci] = append(s.queue, int32(ci)), true
		}
	} else {
		n := len(s.lo)
		was := s.trail[len(s.trail)-2*n:] // the parent's lo, then its hi
		if s.lo[branched] > was[branched] {
			s.enqueue(s.watchLo[branched])
		}
		if s.hi[branched] < was[n+branched] {
			s.enqueue(s.watchHi[branched])
		}
	}
	if !s.propagate() {
		return
	}
	if s.objLowerBound() >= s.best && s.feasible {
		return
	}
	branch := s.pickBranchVar()
	if branch < 0 {
		// All variables fixed: feasibility was proven by propagation.
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
		s.dfs(branch) // may grow s.trail, so the saved bounds are re-sliced, not held
		copy(s.lo, s.trail[base:base+n])
		copy(s.hi, s.trail[base+n:base+2*n])
		if s.stopped || s.nodes >= s.maxNodes {
			break
		}
	}
	s.trail = s.trail[:base]
}

// propagate examines queued constraints, and those they disturb, until
// the queue is empty; it returns false on a wipe-out. minSum is
// recomputed at every examination, so backtracking restores lo and hi
// and nothing else. Monotone propagators make the fixpoint, and whether
// a wipe-out precedes it, independent of examination order. No pass cap
// is needed: each tightening moves an integer bound of a finite domain
// by at least one, so the queue drains.
func (s *solver) propagate() bool {
	ok := true
	for head := 0; ok && head < len(s.queue); head++ {
		ci := s.queue[head]
		s.queued[ci] = false
		s.props++
		ok = s.examine(&s.m.cons[ci])
	}
	if !ok {
		clear(s.queued) // the constraints still waiting are abandoned with the node
	}
	s.queue = s.queue[:0]
	return ok
}

// examine tightens the bounds of c's variables against its right-hand
// side and queues the constraints reading a bound it moved; it returns
// false when c cannot hold or a domain empties.
func (s *solver) examine(c *constraint) bool {
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
		// t.Coef * x <= residual
		if t.Coef > 0 {
			ub := floorDiv(residual, t.Coef)
			if ub < s.hi[t.Var] {
				s.hi[t.Var] = ub
				if s.lo[t.Var] > ub {
					return false
				}
				s.enqueue(s.watchHi[t.Var])
			}
		} else {
			lb := ceilDiv(residual, t.Coef)
			if lb > s.lo[t.Var] {
				s.lo[t.Var] = lb
				if lb > s.hi[t.Var] {
					return false
				}
				s.enqueue(s.watchLo[t.Var])
			}
		}
	}
	return true
}

// objLowerBound returns an optimistic (minimum possible) objective for
// the current domains.
func (s *solver) objLowerBound() int {
	lb := 0
	for _, t := range s.m.obj {
		lb += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
	}
	return lb
}

// pickBranchVar returns the unfixed variable with the smallest domain,
// or -1 if all are fixed.
func (s *solver) pickBranchVar() int {
	best, bestSpan := -1, math.MaxInt
	for i := range s.lo {
		span := s.hi[i] - s.lo[i]
		if span > 0 && span < bestSpan {
			best, bestSpan = i, span
			if span == 1 {
				break
			}
		}
	}
	return best
}

// valueOrder enumerates the domain of v, trying the objective-friendly
// end first.
func (s *solver) valueOrder(v int) []int {
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

// minProd returns the minimum of coef*x for x in [lo, hi].
func minProd(coef, lo, hi int) int {
	if coef >= 0 {
		return coef * lo
	}
	return coef * hi
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

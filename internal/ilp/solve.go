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
	trail    []int // lo, hi, minAct and objAct of every open node, root first; reused, so a solve allocates per depth reached, not per node
	stride   int   // trail entries per open node
	best     int
	bestAsg  []int
	feasible bool
	nodes    int
	maxNodes int

	// watchLo[v] lists the constraints whose minimum reads lo[v] (v has a
	// positive coefficient there), watchHi[v] those reading hi[v], one
	// entry per term; queue is the FIFO of constraints to examine,
	// queued flags its members.
	watchLo, watchHi [][]watchEntry
	queue            []int32
	queued           []bool
	props            int // constraints examined

	// minAct[ci] is the minimum of constraint ci's left-hand side over
	// the current domains, objAct that of the objective; both move with
	// every bound. objUp[v] and objDown[v] sum v's positive and
	// |negative| objective coefficients: what a unit rise of lo[v], or
	// fall of hi[v], adds to objAct.
	minAct         []int
	objAct         int
	objUp, objDown []int

	ctx     context.Context
	stopped bool // ctx fired mid-search
}

// watchEntry is one term's entry in a watch list: the constraint, and the
// magnitude of the term's coefficient, which scales what a move of the
// watched bound adds to that constraint's minimum activity.
type watchEntry struct {
	ci  int32
	mag int
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

// watch builds the per-variable watch lists and the objective's
// per-variable coefficient sums, and sums the root's activities, once
// per solve.
func (s *solver) watch() {
	n, nc := len(s.lo), len(s.m.cons)
	s.watchLo = make([][]watchEntry, n)
	s.watchHi = make([][]watchEntry, n)
	s.queue = make([]int32, 0, nc)
	s.queued = make([]bool, nc)
	s.minAct = make([]int, nc)
	for ci, c := range s.m.cons {
		for _, t := range c.terms {
			if t.Coef > 0 {
				s.watchLo[t.Var] = append(s.watchLo[t.Var], watchEntry{int32(ci), t.Coef})
			} else if t.Coef < 0 {
				s.watchHi[t.Var] = append(s.watchHi[t.Var], watchEntry{int32(ci), -t.Coef})
			}
			s.minAct[ci] += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
		}
	}
	s.objUp = make([]int, n)
	s.objDown = make([]int, n)
	for _, t := range s.m.obj {
		if t.Coef > 0 {
			s.objUp[t.Var] += t.Coef
		} else {
			s.objDown[t.Var] -= t.Coef
		}
		s.objAct += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
	}
	s.stride = 2*n + nc + 1
}

// raisedLo accounts for lo[v] having risen by d: the minimum activity
// of every constraint reading it grows, and each is queued.
func (s *solver) raisedLo(v, d int) {
	for _, w := range s.watchLo[v] {
		s.minAct[w.ci] += w.mag * d
		s.enqueue(w.ci)
	}
	s.objAct += s.objUp[v] * d
}

// loweredHi accounts for hi[v] having fallen by d, as raisedLo does
// for lo.
func (s *solver) loweredHi(v, d int) {
	for _, w := range s.watchHi[v] {
		s.minAct[w.ci] += w.mag * d
		s.enqueue(w.ci)
	}
	s.objAct += s.objDown[v] * d
}

// enqueue marks constraint ci for re-examination.
func (s *solver) enqueue(ci int32) {
	if !s.queued[ci] {
		s.queued[ci] = true
		s.queue = append(s.queue, ci)
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
		was := s.trail[len(s.trail)-s.stride:] // the parent's lo, then its hi
		if d := s.lo[branched] - was[branched]; d > 0 {
			s.raisedLo(branched, d)
		}
		if d := was[len(s.lo)+branched] - s.hi[branched]; d > 0 {
			s.loweredHi(branched, d)
		}
	}
	if !s.propagate() {
		return
	}
	if s.objAct >= s.best && s.feasible {
		return
	}
	branch := s.pickBranchVar()
	if branch < 0 {
		// All variables fixed: feasibility was proven by propagation,
		// and the objective's minimum is its value.
		if obj := s.objAct; obj < s.best || !s.feasible {
			if obj < s.best {
				s.best = obj
			}
			s.feasible = true
			s.bestAsg = append(s.bestAsg[:0], s.lo...)
		}
		return
	}

	// Save this node, then try the objective-friendly end of the
	// branching variable's domain first.
	base := len(s.trail)
	s.trail = append(append(append(append(s.trail, s.lo...), s.hi...), s.minAct...), s.objAct)
	lo, hi := s.lo[branch], s.hi[branch]
	up := s.objUp[branch] > s.objDown[branch]
	for k := 0; k <= hi-lo; k++ {
		val := hi - k
		if up {
			val = lo + k
		}
		s.lo[branch], s.hi[branch] = val, val
		s.dfs(branch) // may grow s.trail, so the saved node is re-sliced, not held
		saved := s.trail[base : base+s.stride]
		n := copy(s.lo, saved)
		n += copy(s.hi, saved[n:])
		n += copy(s.minAct, saved[n:])
		s.objAct = saved[n]
		if s.stopped || s.nodes >= s.maxNodes {
			break
		}
	}
	s.trail = s.trail[:base]
}

// propagate examines queued constraints, and those they disturb, until
// the queue is empty; it returns false on a wipe-out. Monotone
// propagators make the fixpoint, and whether a wipe-out precedes it,
// independent of examination order. No pass cap is needed: each
// tightening moves an integer bound of a finite domain by at least
// one, so the queue drains.
func (s *solver) propagate() bool {
	ok := true
	for head := 0; ok && head < len(s.queue); head++ {
		ci := s.queue[head]
		s.queued[ci] = false
		s.props++
		ok = s.examine(ci)
	}
	if !ok {
		clear(s.queued) // the constraints still waiting are abandoned with the node
	}
	s.queue = s.queue[:0]
	return ok
}

// examine tightens the bounds of constraint ci's variables against its
// right-hand side and queues the constraints reading a bound it moved;
// it returns false when ci cannot hold. With slack = rhs − minAct, a
// term coef·x can take at most slack above its own minimum, so its
// bound moves exactly when |coef|·(hi−lo) > slack. That is the
// floor/ceil of the residual rhs − (minAct − own) over coef, with the
// multiple of coef taken out: for slack ≥ 0 both give lo + slack/coef
// (or hi − slack/|coef|), and the new bound never crosses the other, so
// a domain cannot empty here. slack is taken once, on entry, as the
// residual's sum was; a variable repeated in ci reads its bounds as
// they stand when its term comes up.
func (s *solver) examine(ci int32) bool {
	slack := s.m.cons[ci].rhs - s.minAct[ci]
	if slack < 0 {
		return false
	}
	for _, t := range s.m.cons[ci].terms {
		v := int(t.Var)
		switch {
		case t.Coef > 0 && t.Coef*(s.hi[v]-s.lo[v]) > slack:
			ub := s.lo[v] + slack/t.Coef
			d := s.hi[v] - ub
			s.hi[v] = ub
			s.loweredHi(v, d)
		case t.Coef < 0 && -t.Coef*(s.hi[v]-s.lo[v]) > slack:
			lb := s.hi[v] - slack/-t.Coef
			d := lb - s.lo[v]
			s.lo[v] = lb
			s.raisedLo(v, d)
		}
	}
	return true
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

// minProd returns the minimum of coef*x for x in [lo, hi].
func minProd(coef, lo, hi int) int {
	if coef >= 0 {
		return coef * lo
	}
	return coef * hi
}

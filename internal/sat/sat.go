// Package sat implements a small, dependency-free CDCL SAT solver.
//
// The solver exists to serve internal/satmap, which encodes CGRA
// modulo-scheduling instances as CNF, so it favours predictability over
// raw speed: two-watched-literal propagation, VSIDS-style activity with
// exponential decay, 1-UIP conflict analysis with non-chronological
// backjumping, Luby-sequence restarts, and saved phases. Behaviour is
// fully deterministic for a fixed Options.Seed and a fixed clause
// insertion order — there is no wall-clock or map-iteration dependence
// anywhere in the search.
//
// Solve honours two interruption mechanisms: a conflict budget
// (Options.MaxConflicts) that yields StatusUnknown when exhausted, and
// context cancellation, polled every Options.CancelEvery conflicts,
// which returns the context's error. Effort counters (conflicts,
// propagations, decisions, learned clauses, restarts) are exported via
// Stats for the observability layer.
package sat

import (
	"context"
	"fmt"
)

// Lit is a literal: variable v (1-based) encoded as v<<1 for the
// positive polarity and v<<1|1 for the negation.
type Lit uint32

// PosLit returns the positive literal of 1-based variable v.
func PosLit(v int) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of 1-based variable v.
func NegLit(v int) Lit { return Lit(v<<1 | 1) }

// Var returns the 1-based variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the opposite polarity of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether l is a negated literal.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders l in DIMACS-style notation (e.g. "3", "-7").
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes: a satisfying assignment was found, the formula was
// proved unsatisfiable, or the search stopped early (conflict budget).
const (
	StatusUnknown Status = iota
	StatusSat
	StatusUnsat
)

// String names the status for logs and metrics.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Options tunes a Solve call.
type Options struct {
	// MaxConflicts bounds the number of conflicts before Solve gives
	// up with StatusUnknown. Zero or negative means unbounded.
	MaxConflicts int64
	// CancelEvery is the number of conflicts between context polls.
	// Zero means the default (256).
	CancelEvery int
	// Seed perturbs the initial saved phases. The search is
	// deterministic for a fixed seed.
	Seed int64
}

// Stats exports the solver's effort counters.
type Stats struct {
	Conflicts    int64 // conflicts encountered
	Propagations int64 // literals propagated
	Decisions    int64 // decision-level branches taken
	Learned      int64 // clauses learned from conflicts
	Restarts     int64 // Luby restarts performed
}

const defaultCancelEvery = 256

// clause is a disjunction of literals. The first two literals are the
// watched pair.
type clause struct {
	lits   []Lit
	learnt bool
}

// Solver holds a CNF formula and the CDCL search state. The zero value
// is not usable; construct with New. A Solver may be reused for
// incremental solving: after Solve returns, AddClause may add further
// constraints (the trail is unwound to level 0 first) and Solve may be
// called again, retaining learned clauses and activity.
type Solver struct {
	nVars   int
	clauses []*clause // problem + learned clauses
	watches [][]*clause

	assign   []int8  // per var: 0 unassigned, +1 true, -1 false
	level    []int32 // per var: decision level of assignment
	reason   []*clause
	trail    []Lit
	lim      []int // trail index at each decision level
	qhead    int
	unsatAt0 bool // empty clause derived at level 0

	activity []float64
	varInc   float64
	heap     []int32 // binary max-heap of vars ordered by activity
	heapPos  []int32 // var -> index in heap, -1 if absent
	phase    []bool  // saved polarity per var (true = assign positive)

	seen  []bool // scratch for conflict analysis
	stats Stats
	opts  Options
}

// New returns a solver over variables 1..nVars.
func New(nVars int, opts Options) *Solver {
	if nVars < 0 {
		nVars = 0
	}
	s := &Solver{
		nVars:    nVars,
		watches:  make([][]*clause, 2*(nVars+1)),
		assign:   make([]int8, nVars+1),
		level:    make([]int32, nVars+1),
		reason:   make([]*clause, nVars+1),
		activity: make([]float64, nVars+1),
		heapPos:  make([]int32, nVars+1),
		phase:    make([]bool, nVars+1),
		seen:     make([]bool, nVars+1),
		varInc:   1.0,
		opts:     opts,
	}
	// Seed-derived initial phases: a splitmix64 bit per variable makes
	// the first decisions, and so the whole search, a function of the
	// seed; another seed starts the search from other phases.
	x := uint64(opts.Seed) + 0x9e3779b97f4a7c15
	for v := 1; v <= nVars; v++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s.phase[v] = z&1 == 1
	}
	s.heap = make([]int32, 0, nVars)
	for v := 1; v <= nVars; v++ {
		s.heapPos[v] = -1
		s.heapInsert(int32(v))
	}
	return s
}

// NumVars returns the number of variables the solver was built with.
func (s *Solver) NumVars() int { return s.nVars }

// SetPhase overrides variable v's initial saved polarity: the first
// decision on v tries val. Search (phase saving) updates the polarity
// afterwards as usual. Callers use this to bias the first models
// toward a preferred region — e.g. tight schedules — without
// constraining the search. Out-of-range variables are ignored.
func (s *Solver) SetPhase(v int, val bool) {
	if v < 1 || v > s.nVars {
		return
	}
	s.phase[v] = val
}

// SetMaxConflicts replaces the conflict budget applied to subsequent
// Solve calls (each call counts from its own start). Zero or negative
// means unbounded. Incremental callers use this to share one budget
// across several Solve rounds.
func (s *Solver) SetMaxConflicts(n int64) { s.opts.MaxConflicts = n }

// Stats returns the effort counters accumulated so far.
func (s *Solver) Stats() Stats { return s.stats }

// value returns the current truth value of l: +1 true, -1 false, 0
// unassigned.
func (s *Solver) value(l Lit) int8 {
	a := s.assign[l.Var()]
	if l.Sign() {
		return -a
	}
	return a
}

// AddClause adds a disjunction of literals to the formula. It must be
// called with the trail at decision level 0 (always true before the
// first Solve and immediately after any Solve returns). It reports
// false if the formula is now trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if len(s.lim) != 0 {
		s.cancelUntil(0)
	}
	if s.unsatAt0 {
		return false
	}
	// Normalise: drop duplicate and false literals, detect tautology
	// and already-true clauses.
	out := lits[:0:0]
	for _, l := range lits {
		if v := l.Var(); v < 1 || v > s.nVars {
			panic(fmt.Sprintf("sat: literal %s out of range (1..%d)", l, s.nVars))
		}
		switch s.value(l) {
		case 1:
			return true // satisfied at level 0
		case -1:
			continue // falsified at level 0, drop
		}
		dup := false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Neg() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsatAt0 = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsatAt0 = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

// watch registers c on the watch lists of its first two literals.
func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], c)
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
}

// uncheckedEnqueue assigns l true with the given reason clause.
func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation until fixpoint; it returns the
// conflicting clause, or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; clauses watching ¬p may be affected
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i, c := range ws {
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// Satisfied by the other watch?
			if s.value(c.lits[0]) == 1 {
				kept = append(kept, c)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != -1 {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if s.value(c.lits[0]) == -1 {
				confl = c
				kept = append(kept, ws[i+1:]...)
				break
			}
			s.stats.Propagations++
			s.uncheckedEnqueue(c.lits[0], c)
		}
		s.watches[p] = kept
		if confl != nil {
			s.qhead = len(s.trail)
			return confl
		}
	}
	return nil
}

// bumpVar increases v's activity and repositions it in the heap.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

const varDecay = 1.0 / 0.95

// analyze performs 1-UIP conflict analysis from confl. It returns the
// learned clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit // zero value matches no literal of vars ≥ 1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.lim))

	for {
		for _, q := range confl.lits {
			// Reason clauses carry their asserting literal at lits[0];
			// skip it when expanding (it is p, the literal we resolved on).
			if q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		confl = s.reason[v]
	}

	// Backjump level: the highest level among the non-asserting
	// literals (0 if the clause is unit).
	back := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = int(s.level[learnt[1].Var()])
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, back
}

// cancelUntil unwinds the trail to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if len(s.lim) <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.lim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Sign() // save polarity
		s.assign[v] = 0
		s.reason[v] = nil
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:s.lim[lvl]]
	s.qhead = len(s.trail)
	s.lim = s.lim[:lvl]
}

// pickBranchVar pops the highest-activity unassigned variable.
// Ties break toward the smallest variable index, keeping the search
// deterministic.
func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := int(s.heapPop())
		if s.assign[v] == 0 {
			return v
		}
	}
	return 0
}

// luby returns the i-th term (0-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int64) int64 {
	var size, seq int64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return int64(1) << seq
}

const restartBase = 128 // conflicts per Luby unit

// Solve searches for a satisfying assignment. It returns StatusSat with
// a model available via Value, StatusUnsat if the formula is proved
// unsatisfiable, or StatusUnknown if the conflict budget ran out. The
// error is non-nil only when ctx was cancelled (the status is then
// StatusUnknown). The solver is left at decision level 0 on Unsat and
// Unknown; on Sat the trail holds the model until the next AddClause or
// Solve call.
func (s *Solver) Solve(ctx context.Context) (Status, error) {
	if err := ctx.Err(); err != nil {
		return StatusUnknown, err
	}
	if s.unsatAt0 {
		return StatusUnsat, nil
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.unsatAt0 = true
		return StatusUnsat, nil
	}
	cancelEvery := s.opts.CancelEvery
	if cancelEvery <= 0 {
		cancelEvery = defaultCancelEvery
	}
	budget := s.opts.MaxConflicts
	startConflicts := s.stats.Conflicts
	var restartSeq int64
	restartLim := luby(restartSeq) * restartBase
	sinceRestart := int64(0)
	sinceCancel := 0

	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			sinceRestart++
			sinceCancel++
			if len(s.lim) == 0 {
				s.unsatAt0 = true
				return StatusUnsat, nil
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.clauses = append(s.clauses, c)
				s.watch(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.stats.Learned++
			s.varInc *= varDecay
			if budget > 0 && s.stats.Conflicts-startConflicts >= budget {
				s.cancelUntil(0)
				return StatusUnknown, nil
			}
			if sinceCancel >= cancelEvery {
				sinceCancel = 0
				if err := ctx.Err(); err != nil {
					s.cancelUntil(0)
					return StatusUnknown, err
				}
			}
			if sinceRestart >= restartLim {
				sinceRestart = 0
				restartSeq++
				restartLim = luby(restartSeq) * restartBase
				s.stats.Restarts++
				s.cancelUntil(0)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return StatusSat, nil
		}
		s.stats.Decisions++
		s.lim = append(s.lim, len(s.trail))
		if s.phase[v] {
			s.uncheckedEnqueue(PosLit(v), nil)
		} else {
			s.uncheckedEnqueue(NegLit(v), nil)
		}
	}
}

// Value reports the model value of 1-based variable v after a
// StatusSat result. Unassigned variables (possible when the formula
// does not constrain v) report false.
func (s *Solver) Value(v int) bool {
	if v < 1 || v > s.nVars {
		return false
	}
	return s.assign[v] == 1
}

// --- activity-ordered binary heap -----------------------------------

// heapLess orders the heap: higher activity first, then smaller
// variable index (the deterministic tie-break).
func (s *Solver) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(s.heapPos[v])
}

func (s *Solver) heapPop() int32 {
	top := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapPos[top] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return top
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = i
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int32) {
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && s.heapLess(s.heap[child+1], s.heap[child]) {
			child++
		}
		if !s.heapLess(s.heap[child], v) {
			break
		}
		s.heap[i] = s.heap[child]
		s.heapPos[s.heap[i]] = i
		i = child
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

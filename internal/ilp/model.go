// Package ilp is a small exact solver for integer linear programs with
// bounded variables, used by the cluster mapping stage in place of the
// commercial solver the paper calls through gurobipy.
//
// The solver is branch-and-bound with bound-consistency propagation on
// the linear constraints and an optimistic objective bound. The CDG
// instances Panorama produces are small (tens of variables with tiny
// domains), for which this is exact and fast.
//
// Propagation is event-driven: per-variable watch lists name the
// constraints that read each bound, a node queues only the readers of
// the bound its branch moved, and examining a constraint queues the
// readers of what it tightens. The propagators are monotone, so every
// node ends at the fixpoint (or wipe-out) a sweep of all constraints
// would reach and the search tree is that sweep's; the sweep survives
// as the oracle of the package's tests, which hold Result.Nodes equal.
//
// Propagation is also activity-based: each constraint's minimum
// activity (its left-hand side at the bounds that minimise it) and the
// objective's lower bound are kept up to date as bounds move — a bound
// that moves by d adds |coef|·d to every constraint watching it — and
// restored with the bounds on backtrack. Examining a constraint then
// takes slack = rhs − minimum activity once, and moves a term's bound
// only when |coef|·(hi−lo) > slack, to lo + slack/coef or
// hi − slack/|coef|. For slack ≥ 0 that is exactly the floor/ceil of
// the residual a from-scratch sum would divide, everything is integer
// arithmetic, and the queue and its order are unchanged, so every
// solve explores the same nodes, examines the same constraints and
// returns the same answer as the from-scratch sums the oracle keeps.
package ilp

import "fmt"

// VarID identifies a model variable.
type VarID int

// Term is one coefficient*variable summand of a linear expression.
type Term struct {
	Var  VarID
	Coef int
}

// Expr is a linear expression: sum of terms plus a constant.
type Expr struct {
	Terms []Term
	Const int
}

// NewExpr builds an expression from terms.
func NewExpr(terms ...Term) Expr { return Expr{Terms: terms} }

// Plus returns e with an added term.
func (e Expr) Plus(v VarID, coef int) Expr {
	e.Terms = append(append([]Term(nil), e.Terms...), Term{v, coef})
	return e
}

// PlusConst returns e with an added constant.
func (e Expr) PlusConst(c int) Expr {
	e.Const += c
	return e
}

type varInfo struct {
	name   string
	lo, hi int
}

// constraint is canonical form: sum(coef*x) <= rhs.
type constraint struct {
	terms []Term
	rhs   int
	tag   string
}

// Model accumulates variables, constraints, and a minimisation
// objective.
type Model struct {
	vars []varInfo
	cons []constraint
	obj  []Term // minimise sum(obj)
	objC int
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Binary adds a 0/1 variable.
func (m *Model) Binary(name string) VarID { return m.IntVar(name, 0, 1) }

// IntVar adds an integer variable with inclusive bounds [lo, hi].
func (m *Model) IntVar(name string, lo, hi int) VarID {
	if lo > hi {
		panic(fmt.Sprintf("ilp: variable %q has empty domain [%d,%d]", name, lo, hi))
	}
	m.vars = append(m.vars, varInfo{name: name, lo: lo, hi: hi})
	return VarID(len(m.vars) - 1)
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// AddLE adds the constraint expr <= rhs.
func (m *Model) AddLE(e Expr, rhs int, tag string) {
	m.cons = append(m.cons, constraint{terms: cloneTerms(e.Terms), rhs: rhs - e.Const, tag: tag})
}

// AddGE adds the constraint expr >= rhs.
func (m *Model) AddGE(e Expr, rhs int, tag string) {
	neg := make([]Term, len(e.Terms))
	for i, t := range e.Terms {
		neg[i] = Term{t.Var, -t.Coef}
	}
	m.cons = append(m.cons, constraint{terms: neg, rhs: e.Const - rhs, tag: tag})
}

// AddEQ adds the constraint expr == rhs.
func (m *Model) AddEQ(e Expr, rhs int, tag string) {
	m.AddLE(e, rhs, tag)
	m.AddGE(e, rhs, tag)
}

// Minimize sets the objective to minimise. Calling it again replaces
// the objective.
func (m *Model) Minimize(e Expr) {
	m.obj = cloneTerms(e.Terms)
	m.objC = e.Const
}

// AbsVar introduces an auxiliary variable t with t >= expr and
// t >= -expr (so at the optimum t == |expr| whenever t is being
// minimised), returning t for use in the objective. hi must be a valid
// upper bound for |expr|.
func (m *Model) AbsVar(name string, e Expr, hi int) VarID {
	t := m.IntVar(name, 0, hi)
	// t >= expr  <=>  expr - t <= 0
	m.AddLE(e.Plus(t, -1), 0, name+"+")
	// t >= -expr <=>  -expr - t <= 0
	neg := Expr{Const: -e.Const}
	for _, tm := range e.Terms {
		neg.Terms = append(neg.Terms, Term{tm.Var, -tm.Coef})
	}
	m.AddLE(neg.Plus(t, -1), 0, name+"-")
	return t
}

func cloneTerms(ts []Term) []Term {
	out := make([]Term, len(ts))
	copy(out, ts)
	return out
}

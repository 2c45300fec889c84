package ilp

import (
	"context"
	"testing"
	"time"

	"panorama/internal/faultinject"
)

// hardModel builds an instance whose exhaustive search is enormous
// (choose 14 of 28 binaries, minimise a skewed objective) but whose
// first feasible leaves are found within a few hundred nodes — ideal
// for asserting anytime behaviour.
func hardModel() (*Model, []VarID) {
	m := NewModel()
	vars := make([]VarID, 28)
	var sum Expr
	var obj Expr
	for i := range vars {
		vars[i] = m.Binary("x")
		sum = sum.Plus(vars[i], 1)
		obj = obj.Plus(vars[i], 1+(i*7)%5)
	}
	m.AddEQ(sum, 14, "half")
	m.Minimize(obj)
	return m, vars
}

// The wall-clock budget of a solve is its context's deadline; expiry
// has anytime semantics.
func TestSolveTimeoutReturnsIncumbent(t *testing.T) {
	m, _ := hardModel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	res := m.SolveCtx(ctx, Options{})
	elapsed := time.Since(t0)
	if res.Status != Limit {
		t.Fatalf("status = %v, want Limit (nodes=%d)", res.Status, res.Nodes)
	}
	if !res.Feasible {
		t.Fatal("anytime solve must surface the best incumbent found before the deadline")
	}
	if len(res.Assign) == 0 {
		t.Fatal("Limit with Feasible must carry the incumbent assignment")
	}
	// Generous slack: the context is checked every 1024 nodes.
	if elapsed > 2*time.Second {
		t.Fatalf("solve overran its 20ms budget by %v", elapsed)
	}
}

func TestSolveContextDeadline(t *testing.T) {
	m, vars := hardModel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := m.SolveCtx(ctx, Options{})
	if res.Status != Limit {
		t.Fatalf("status = %v, want Limit", res.Status)
	}
	if !res.Feasible {
		t.Fatal("context deadline must keep the incumbent")
	}
	// The kept incumbent is a complete solution, not a partial search
	// state: it satisfies the model's one constraint.
	set := 0
	for _, v := range vars {
		set += res.Value(v)
	}
	if set != 14 {
		t.Fatalf("incumbent sets %d of %d binaries, want 14", set, len(vars))
	}
}

func TestSolvePreCancelledContext(t *testing.T) {
	m, _ := hardModel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	res := m.SolveCtx(ctx, Options{})
	if res.Status != Limit || res.Feasible {
		t.Fatalf("pre-cancelled solve = {%v feasible=%v}, want bare Limit", res.Status, res.Feasible)
	}
	if res.Nodes != 0 {
		t.Fatalf("pre-cancelled solve explored %d nodes", res.Nodes)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("pre-cancelled solve took %v", el)
	}
}

func TestSolveWithoutBudgetsStaysOptimal(t *testing.T) {
	// Small instance: deadline plumbing must not perturb exactness.
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	m.AddGE(NewExpr(Term{a, 1}, Term{b, 1}), 1, "cover")
	m.Minimize(NewExpr(Term{a, 2}, Term{b, 3}))
	res := m.Solve(Options{})
	if res.Status != Optimal || res.Objective != 2 || res.Value(a) != 1 {
		t.Fatalf("got %+v, want optimal a=1 obj=2", res)
	}
}

func TestSolveFaultInjection(t *testing.T) {
	disarm := faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteILPSolve, Kind: faultinject.Timeout, From: 1, Count: 1},
	}})
	defer disarm()
	m, _ := hardModel()
	res := m.Solve(Options{})
	if res.Status != Limit || res.Feasible {
		t.Fatalf("injected solve = {%v feasible=%v}, want bare Limit", res.Status, res.Feasible)
	}
	// The next solve (hit 2, past Count) runs normally.
	m2 := NewModel()
	v := m2.Binary("v")
	m2.Minimize(NewExpr(Term{v, 1}))
	if res := m2.Solve(Options{}); res.Status != Optimal {
		t.Fatalf("post-injection solve = %v, want Optimal", res.Status)
	}
}

package clustermap

import (
	"context"
	"testing"
	"time"

	"panorama/internal/failure"
	"panorama/internal/faultinject"
	"panorama/internal/spectral"
)

// chainCDG builds a simple chain CDG of k clusters of 4 nodes each.
func chainCDG(t *testing.T, k int) *spectral.CDG {
	t.Helper()
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = 4
	}
	return lineCDG(sizes)
}

func TestMapWithEscalationCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapWithEscalationCtx(ctx, chainCDG(t, 6), 2, 2, Options{})
	if !failure.IsCancelled(err) {
		t.Fatalf("err = %v, want a cancellation-classified error", err)
	}
}

func TestMapCtxExpiredDeadlineSurfacesBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, ok, err := MapCtx(ctx, chainCDG(t, 6), 2, 2, Options{})
	if ok {
		t.Fatal("an expired deadline cannot produce a feasible mapping")
	}
	if !failure.IsBudget(err) {
		t.Fatalf("err = %v, want a budget-classified error", err)
	}
}

func TestMapCtxMatchesMapWhenUnconstrained(t *testing.T) {
	cdg := chainCDG(t, 6)
	plain, okPlain, err := Map(cdg, 2, 2, Options{})
	if err != nil || !okPlain {
		t.Fatalf("Map: ok=%v err=%v", okPlain, err)
	}
	viaCtx, okCtx, err := MapCtx(context.Background(), cdg, 2, 2, Options{})
	if err != nil || !okCtx {
		t.Fatalf("MapCtx: ok=%v err=%v", okCtx, err)
	}
	if plain.Score() != viaCtx.Score() || plain.Zeta1 != viaCtx.Zeta1 {
		t.Fatalf("ctx plumbing changed the result: %d/%d vs %d/%d",
			plain.Score(), plain.Zeta1, viaCtx.Score(), viaCtx.Zeta1)
	}
}

// expiresAfterFeasible is a context whose deadline passes the moment
// the first ζ attempt succeeds: it reports DeadlineExceeded once the
// feasible-attempt counter has moved past its value at creation.
type expiresAfterFeasible struct {
	context.Context
	okBefore int64
}

func (c expiresAfterFeasible) Err() error {
	if mAttemptOK.Value() > c.okBefore {
		return context.DeadlineExceeded
	}
	return nil
}

// A clock that fires after a feasible ζ is in hand must still abort
// the escalation: returning the best mapping so far would make the
// result a function of wall time.
func TestFiredClockNeverYieldsBestSoFar(t *testing.T) {
	ctx := expiresAfterFeasible{Context: context.Background(), okBefore: mAttemptOK.Value()}
	res, err := MapWithEscalationCtx(ctx, chainCDG(t, 8), 2, 2, Options{})
	if mAttemptOK.Value() == ctx.okBefore {
		t.Fatal("no ζ attempt succeeded; the clock never fired")
	}
	if res != nil {
		t.Fatalf("a fired clock returned a mapping (ζ1=%d)", res.Zeta1)
	}
	if !failure.IsBudget(err) && !failure.IsCancelled(err) {
		t.Fatalf("err = %v, want a budget- or cancel-classified error", err)
	}
}

// TestILPToGreedyRung drives the ILP→greedy rung via fault injection:
// the column-scatter solve (hit 1) stays clean, every row-ILP solve
// degrades to Limit with no incumbent, so all rows must come from the
// greedy fallback and the mapping must still be complete.
func TestILPToGreedyRung(t *testing.T) {
	disarm := faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteILPSolve, Kind: faultinject.Timeout, From: 2},
	}})
	defer disarm()
	res, ok, err := Map(chainCDG(t, 6), 2, 2, Options{})
	if err != nil || !ok {
		t.Fatalf("Map under row-ILP injection: ok=%v err=%v", ok, err)
	}
	if res.GreedyRows == 0 {
		t.Fatal("every row ILP was injected away; GreedyRows must be > 0")
	}
	if !res.Limited {
		t.Fatal("Limited must record the injected budget expiries")
	}
	for v, cs := range res.Cols {
		if len(cs) == 0 {
			t.Fatalf("node %d has no columns", v)
		}
	}
}

// TestGreedyFailureIsTyped removes both rungs — ILPs budget away AND
// the greedy fallback errors — and asserts the failure is a clean
// error, not a crash.
func TestGreedyFailureIsTyped(t *testing.T) {
	disarm := faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteILPSolve, Kind: faultinject.Timeout, From: 2},
		{Site: faultinject.SiteGreedy, Kind: faultinject.Error, From: 1},
	}})
	defer disarm()
	_, ok, err := Map(chainCDG(t, 6), 2, 2, Options{})
	if ok || err == nil {
		t.Fatalf("ok=%v err=%v, want a hard error with both rungs injected away", ok, err)
	}
}

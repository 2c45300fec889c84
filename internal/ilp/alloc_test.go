package ilp

import "testing"

// A solve allocates its per-solve state (bounds, activities, watch
// lists, queue) and one trail slot per depth reached; nothing per node
// or per incumbent. So the same model allocates the same count under a
// node budget twenty times larger.
func TestSolveAllocationsDoNotScaleWithNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m, _ := hardModel()
	run := func(budget int) float64 {
		if res := m.Solve(Options{MaxNodes: budget}); res.Status != Limit || res.Nodes != budget || !res.Feasible {
			t.Fatalf("MaxNodes %d: %v after %d nodes, feasible %v; the model must outlast the budget", budget, res.Status, res.Nodes, res.Feasible)
		}
		return testing.AllocsPerRun(5, func() { m.Solve(Options{MaxNodes: budget}) })
	}
	few, many := run(1_000), run(20_000)
	if few != many {
		t.Fatalf("1,000 nodes allocate %.0f times, 20,000 nodes %.0f: allocations scale with nodes", few, many)
	}
	t.Logf("%.0f allocations per solve", few)
}

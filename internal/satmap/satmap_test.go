package satmap

import (
	"context"
	"errors"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/dfgen"
	"panorama/internal/verify"
)

// chain builds a tiny linear DFG a -> b -> c.
func chain(t *testing.T) *dfg.Graph {
	t.Helper()
	g := dfg.New("chain")
	a := g.AddNode(dfg.OpConst, "a")
	b := g.AddNode(dfg.OpAdd, "b")
	c := g.AddNode(dfg.OpAdd, "c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.MustFreeze()
	return g
}

func TestMapChain(t *testing.T) {
	d := chain(t)
	a := arch.Preset4x4()
	res, err := Map(d, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("no mapping: %+v", res.Attempts)
	}
	if res.II != res.MII {
		t.Fatalf("chain should map at MII=%d, got II=%d", res.MII, res.II)
	}
	if err := verify.Check(d, a, res.Mapping, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapRecurrence(t *testing.T) {
	// An accumulator: v -> v with distance 1 through an add chain.
	g := dfg.New("acc")
	a0 := g.AddNode(dfg.OpConst, "c")
	a1 := g.AddNode(dfg.OpAdd, "acc")
	a2 := g.AddNode(dfg.OpMul, "scale")
	g.AddEdge(a0, a1)
	g.AddEdge(a1, a2)
	g.AddEdgeDist(a2, a1, 1)
	g.MustFreeze()
	a := arch.Preset4x4()
	res, err := Map(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("no mapping: %+v", res.Attempts)
	}
	if err := verify.Check(g, a, res.Mapping, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapMemoryOps(t *testing.T) {
	g := dfg.New("mem")
	ld := g.AddNode(dfg.OpLoad, "ld")
	ad := g.AddNode(dfg.OpAdd, "add")
	st := g.AddNode(dfg.OpStore, "st")
	g.AddEdge(ld, ad)
	g.AddEdge(ad, st)
	g.MustFreeze()
	a := arch.Preset4x4()
	res, err := Map(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("no mapping: %+v", res.Attempts)
	}
	for _, v := range []int{ld, st} {
		if !a.PEs[res.Mapping.PlacePE[v]].MemCapable {
			t.Fatalf("memory op %d on non-memory PE %d", v, res.Mapping.PlacePE[v])
		}
	}
}

func TestClusterGuidance(t *testing.T) {
	d := chain(t)
	a := arch.Preset4x4()
	allowed := [][]int{{0}, {0}, {0}}
	res, err := Map(d, a, Options{AllowedClusters: allowed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("no mapping under guidance: %+v", res.Attempts)
	}
	if err := verify.Check(d, a, res.Mapping, allowed); err != nil {
		t.Fatal(err)
	}
	for v, pe := range res.Mapping.PlacePE {
		if a.ClusterOf(pe) != 0 {
			t.Fatalf("node %d escaped to cluster %d", v, a.ClusterOf(pe))
		}
	}
}

func TestInfeasibleGuidance(t *testing.T) {
	// A memory op pinned to a cluster with no memory PE must fail
	// cleanly, not error.
	a := arch.Preset4x4()
	var noMem int = -1
	for cid := 0; cid < a.NumClusters(); cid++ {
		hasMem := false
		for _, pe := range a.PEsInCluster(cid) {
			if a.PEs[pe].MemCapable {
				hasMem = true
				break
			}
		}
		if !hasMem {
			noMem = cid
			break
		}
	}
	if noMem < 0 {
		t.Skip("every cluster of the 4x4 preset has a memory PE")
	}
	g := dfg.New("m")
	ld := g.AddNode(dfg.OpLoad, "ld")
	ad := g.AddNode(dfg.OpAdd, "a")
	g.AddEdge(ld, ad)
	g.MustFreeze()
	res, err := Map(g, a, Options{AllowedClusters: [][]int{{noMem}, {noMem}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("expected infeasible")
	}
}

// A restriction one entry short or long must be rejected before the
// encoder indexes it by node (arch.IIRange, as in the other mappers).
func TestAllowedClustersLengthChecked(t *testing.T) {
	d := chain(t)
	for _, n := range []int{d.NumNodes() - 1, d.NumNodes() + 1} {
		allowed := make([][]int, n)
		for i := range allowed {
			allowed[i] = []int{0}
		}
		_, err := Map(d, arch.Preset4x4(), Options{AllowedClusters: allowed})
		var re *arch.RestrictionError
		if !errors.As(err, &re) {
			t.Fatalf("%d entries for %d nodes: err = %v, want an arch.RestrictionError", n, d.NumNodes(), err)
		}
	}
}

// MaxII below the start of the range runs no attempt, as in SPR*.
func TestMaxIIBelowStartRunsNothing(t *testing.T) {
	g := dfg.New("heavy")
	for i := 0; i < 9; i++ {
		g.AddNode(dfg.OpLoad, "")
	}
	g.MustFreeze()
	res, err := Map(g, arch.Preset4x4(), Options{MaxII: 1}) // 4 mem PEs: MII 3
	if err != nil {
		t.Fatal(err)
	}
	if res.Success || len(res.Attempts) != 0 {
		t.Fatalf("MaxII 1 below MII %d: %+v", res.MII, res)
	}
}

func TestDeterminism(t *testing.T) {
	seed, p := int64(1007), dfgen.Params{Nodes: 10, ExtraEdges: 3, MaxFanout: 3, RecDensity: 0.3}
	d := dfgen.Generate(seed, p)
	a := arch.Preset4x4()
	r1, err1 := Map(d, a, Options{Seed: 5})
	r2, err2 := Map(d, a, Options{Seed: 5})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Success != r2.Success || r1.II != r2.II {
		t.Fatalf("nondeterministic outcome: %v/%d vs %v/%d", r1.Success, r1.II, r2.Success, r2.II)
	}
	if r1.Success {
		for v := range r1.Mapping.PlacePE {
			if r1.Mapping.PlacePE[v] != r2.Mapping.PlacePE[v] || r1.Mapping.PlaceT[v] != r2.Mapping.PlaceT[v] {
				t.Fatalf("placements differ at node %d", v)
			}
		}
		for ei := range r1.Mapping.Routes {
			if len(r1.Mapping.Routes[ei]) != len(r2.Mapping.Routes[ei]) {
				t.Fatalf("routes differ at edge %d", ei)
			}
			for i := range r1.Mapping.Routes[ei] {
				if r1.Mapping.Routes[ei][i] != r2.Mapping.Routes[ei][i] {
					t.Fatalf("routes differ at edge %d pos %d", ei, i)
				}
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	d := dfgen.Generate(2024, dfgen.Params{Nodes: 16, ExtraEdges: 6, MaxFanout: 4, RecDensity: 0.4})
	a := arch.Preset4x4()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, d, a, Options{})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestConflictBudgetFailsClean(t *testing.T) {
	d := dfgen.Generate(77, dfgen.Params{Nodes: 14, ExtraEdges: 6, MaxFanout: 3, RecDensity: 0.45})
	a := arch.Preset4x4()
	res, err := Map(d, a, Options{MaxConflictsPerII: 1, MaxII: a.MII(d)})
	if err != nil {
		t.Fatal(err)
	}
	// With a one-conflict budget the mapper either solves without
	// conflicts or reports a clean failure; both are acceptable, an
	// error is not.
	if res.Success {
		if verr := verify.Check(d, a, res.Mapping, nil); verr != nil {
			t.Fatal(verr)
		}
	}
}

func TestSizeGate(t *testing.T) {
	d := dfgen.Generate(5, dfgen.Params{Nodes: 12, ExtraEdges: 4, MaxFanout: 3})
	a := arch.Preset4x4()
	res, err := Map(d, a, Options{MaxClauses: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("size gate did not trip")
	}
	if len(res.Attempts) == 0 || res.Attempts[0].Status != "too-large" {
		t.Fatalf("attempts: %+v", res.Attempts)
	}
}

// TestRandomCorpus maps a spread of generated graphs and oracle-checks
// every success; failures must be clean (no error).
func TestRandomCorpus(t *testing.T) {
	a := arch.Preset4x4()
	successes := 0
	for i := 0; i < 40; i++ {
		seed := int64(3000 + i)
		p := dfgen.Params{
			Nodes:      4 + i%12,
			ExtraEdges: 1 + i%4,
			MaxFanout:  2 + i%3,
			RecDensity: float64(i%4) * 0.15,
			MemRatio:   float64(i%3) * 0.15,
		}
		d := dfgen.Generate(seed, p)
		res, err := Map(d, a, Options{Seed: seed})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if res.Success {
			successes++
			if res.II < res.MII {
				t.Fatalf("graph %d: II %d below MII %d", i, res.II, res.MII)
			}
			if err := verify.Check(d, a, res.Mapping, nil); err != nil {
				t.Fatalf("graph %d: %v", i, err)
			}
		}
	}
	if successes < 30 {
		t.Fatalf("only %d/40 graphs mapped — encoder too weak", successes)
	}
}

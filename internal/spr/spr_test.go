package spr

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/verify"
)

// chainDFG builds a linear chain of n adds.
func chainDFG(n int) *dfg.Graph {
	g := dfg.New("chain")
	for i := 0; i < n; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	g.MustFreeze()
	return g
}

// diamondDFG: load -> {mul, add} -> add -> store with a recurrence.
func diamondDFG() *dfg.Graph {
	g := dfg.New("diamond")
	ld := g.AddNode(dfg.OpLoad, "ld")
	m := g.AddNode(dfg.OpMul, "m")
	a := g.AddNode(dfg.OpAdd, "a")
	s := g.AddNode(dfg.OpAdd, "s")
	st := g.AddNode(dfg.OpStore, "st")
	g.AddEdge(ld, m)
	g.AddEdge(ld, a)
	g.AddEdge(m, s)
	g.AddEdge(a, s)
	g.AddEdge(s, st)
	g.AddEdgeDist(s, a, 1) // accumulator recurrence
	g.MustFreeze()
	return g
}

// fanoutDFG: one const feeding w consumers, each chained to a sink.
func fanoutDFG(w int) *dfg.Graph {
	g := dfg.New("fanout")
	c := g.AddNode(dfg.OpConst, "c")
	for i := 0; i < w; i++ {
		v := g.AddNode(dfg.OpMul, "")
		g.AddEdge(c, v)
		u := g.AddNode(dfg.OpAdd, "")
		g.AddEdge(v, u)
	}
	g.MustFreeze()
	return g
}

func mapOrFail(t *testing.T, d *dfg.Graph, a *arch.CGRA, opts Options) *Result {
	t.Helper()
	res, err := Map(d, a, opts)
	if err != nil {
		t.Fatalf("Map error: %v", err)
	}
	if !res.Success {
		t.Fatalf("Map failed: attempts=%+v", res.Attempts)
	}
	// Map validates internally before returning success; re-validate to
	// guard against extractMapping bugs.
	if err := verify.Check(d, a, res.Mapping, opts.AllowedClusters); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	return res
}

func TestMapChain(t *testing.T) {
	res := mapOrFail(t, chainDFG(8), arch.Preset4x4(), Options{Seed: 1})
	if res.MII != 1 {
		t.Fatalf("MII = %d, want 1", res.MII)
	}
	if res.II > 3 {
		t.Fatalf("II = %d for an 8-node chain on 4x4; expected <= 3", res.II)
	}
}

func TestMapDiamondWithRecurrence(t *testing.T) {
	d := diamondDFG()
	res := mapOrFail(t, d, arch.Preset4x4(), Options{Seed: 2})
	// RecMII: cycle a->s->a has latency 2 over distance 1 -> >= 2.
	if res.MII < 2 {
		t.Fatalf("MII = %d, want >= 2", res.MII)
	}
}

func TestMapFanout(t *testing.T) {
	res := mapOrFail(t, fanoutDFG(6), arch.Preset4x4(), Options{Seed: 3})
	if q := arch.QoM(res.MII, res.II); q <= 0 || q > 1 {
		t.Fatalf("QoM = %v out of range", q)
	}
}

func TestMemOpsLandOnMemPEs(t *testing.T) {
	g := dfg.New("mem")
	var prev int = -1
	for i := 0; i < 6; i++ {
		ld := g.AddNode(dfg.OpLoad, "")
		ad := g.AddNode(dfg.OpAdd, "")
		g.AddEdge(ld, ad)
		if prev >= 0 {
			g.AddEdge(prev, ad)
		}
		prev = ad
	}
	st := g.AddNode(dfg.OpStore, "")
	g.AddEdge(prev, st)
	g.MustFreeze()
	a := arch.Preset4x4()
	res := mapOrFail(t, g, a, Options{Seed: 4})
	for v, nd := range g.Nodes {
		if nd.Op.IsMem() && !a.PEs[res.Mapping.PlacePE[v]].MemCapable {
			t.Fatalf("mem op %d on non-mem PE", v)
		}
	}
}

func TestClusterRestrictionHonoured(t *testing.T) {
	a := arch.Preset8x8()
	d := chainDFG(6)
	// Restrict all nodes to clusters 0 and 1 (top-left corner).
	allowed := make([][]int, d.NumNodes())
	for i := range allowed {
		allowed[i] = []int{0, 1}
	}
	res := mapOrFail(t, d, a, Options{Seed: 5, AllowedClusters: allowed})
	for v := range d.Nodes {
		cid := a.ClusterOf(res.Mapping.PlacePE[v])
		if cid != 0 && cid != 1 {
			t.Fatalf("node %d in cluster %d despite restriction", v, cid)
		}
	}
}

func TestAllowedClustersLengthChecked(t *testing.T) {
	if _, err := Map(chainDFG(3), arch.Preset4x4(), Options{AllowedClusters: make([][]int, 99)}); err == nil {
		t.Fatal("accepted wrong-length AllowedClusters")
	}
}

func TestIIEscalationOnPressure(t *testing.T) {
	// 20 nodes on 16 PEs: ResMII = 2.
	d := chainDFG(20)
	res := mapOrFail(t, d, arch.Preset4x4(), Options{Seed: 6})
	if res.MII != 2 {
		t.Fatalf("MII = %d, want 2", res.MII)
	}
	if res.II < 2 {
		t.Fatalf("II = %d below MII", res.II)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	d := diamondDFG()
	a := arch.Preset4x4()
	r1 := mapOrFail(t, d, a, Options{Seed: 7})
	r2 := mapOrFail(t, d, a, Options{Seed: 7})
	if r1.II != r2.II {
		t.Fatalf("same seed, different II: %d vs %d", r1.II, r2.II)
	}
	for v := range d.Nodes {
		if r1.Mapping.PlacePE[v] != r2.Mapping.PlacePE[v] || r1.Mapping.PlaceT[v] != r2.Mapping.PlaceT[v] {
			t.Fatal("same seed, different placement")
		}
	}
}

func TestUnmappableReportsFailure(t *testing.T) {
	// More memory ops than memory FU slots at MaxII=1 on a single-mem-PE
	// column; cap MaxII so escalation cannot save it.
	g := dfg.New("heavy")
	for i := 0; i < 9; i++ {
		g.AddNode(dfg.OpLoad, "")
	}
	g.MustFreeze()
	a := arch.Preset4x4() // 4 mem PEs -> ResMII=3 for 9 loads
	res, err := Map(g, a, Options{Seed: 8, MaxII: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("mapped 9 loads at II=1 on 4 mem PEs")
	}
	if len(res.Attempts) != 0 {
		t.Fatalf("attempts should be empty when MaxII < MII, got %+v", res.Attempts)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := diamondDFG()
	a := arch.Preset4x4()
	res := mapOrFail(t, d, a, Options{Seed: 9})

	// Corrupt placement: move node 0 off its route start.
	bad := *res.Mapping
	bad.PlacePE = append([]int(nil), res.Mapping.PlacePE...)
	bad.PlacePE[0] = (bad.PlacePE[0] + 5) % a.NumPEs()
	if err := verify.Check(d, a, &bad, nil); err == nil {
		t.Fatal("verify.Check accepted corrupted placement")
	}

	// Corrupt a route: drop its last hop.
	bad2 := *res.Mapping
	bad2.Routes = append([][]int32(nil), res.Mapping.Routes...)
	bad2.Routes[0] = bad2.Routes[0][:len(bad2.Routes[0])-1]
	if err := verify.Check(d, a, &bad2, nil); err == nil {
		t.Fatal("verify.Check accepted truncated route")
	}

	if err := verify.Check(d, a, nil, nil); err == nil {
		t.Fatal("verify.Check accepted nil mapping")
	}
}

func TestBackEdgeRoutesWrapModulo(t *testing.T) {
	// Self-accumulator: v adds its own previous value.
	g := dfg.New("acc")
	ld := g.AddNode(dfg.OpLoad, "")
	acc := g.AddNode(dfg.OpAdd, "")
	st := g.AddNode(dfg.OpStore, "")
	g.AddEdge(ld, acc)
	g.AddEdge(acc, st)
	g.AddEdgeDist(acc, acc, 1)
	g.MustFreeze()
	a := arch.Preset4x4()
	res := mapOrFail(t, g, a, Options{Seed: 10})
	// The self-edge route must take exactly II*1 - lat cycles.
	var selfEdge = -1
	for i, e := range g.Edges {
		if e.From == acc && e.To == acc {
			selfEdge = i
		}
	}
	if selfEdge < 0 {
		t.Fatal("self edge missing")
	}
	if len(res.Mapping.Routes[selfEdge]) == 0 {
		t.Fatal("self edge unrouted")
	}
}

func TestPanoramaGuidanceStillMapsMediumKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("medium kernel in -short mode")
	}
	// 40-node layered graph on 8x8 with a 2x2-cluster restriction per layer.
	g := dfg.New("layered")
	const layers, width = 5, 8
	ids := make([][]int, layers)
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			op := dfg.OpAdd
			if l == 0 {
				op = dfg.OpLoad
			}
			ids[l] = append(ids[l], g.AddNode(op, ""))
		}
	}
	for l := 0; l+1 < layers; l++ {
		for w := 0; w < width; w++ {
			g.AddEdge(ids[l][w], ids[l+1][w])
			g.AddEdge(ids[l][w], ids[l+1][(w+1)%width])
		}
	}
	g.MustFreeze()
	a := arch.Preset8x8()
	// Assign each layer to a band of clusters (rows of the cluster grid).
	allowed := make([][]int, g.NumNodes())
	for l := 0; l < layers; l++ {
		row := l * a.ClusterRows / layers
		var cids []int
		for c := 0; c < a.ClusterCols; c++ {
			cids = append(cids, a.ClusterID(row, c))
		}
		for _, v := range ids[l] {
			allowed[v] = cids
		}
	}
	mapOrFail(t, g, a, Options{Seed: 11, AllowedClusters: allowed})
}

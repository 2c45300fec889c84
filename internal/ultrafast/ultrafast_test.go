package ultrafast

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/verify"
)

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

func TestMapChain(t *testing.T) {
	d := chainDFG(10)
	a := arch.Preset4x4()
	res, err := Map(d, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("failed to map a 10-node chain")
	}
	if err := verify.Check(d, a, res.Mapping, nil); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
}

func TestQoMRange(t *testing.T) {
	d := chainDFG(20)
	a := arch.Preset4x4()
	res, err := Map(d, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q := arch.QoM(res.MII, res.II); q <= 0 || q > 1 {
		t.Fatalf("QoM = %v", q)
	}
}

func TestMemRestriction(t *testing.T) {
	g := dfg.New("mem")
	ld := g.AddNode(dfg.OpLoad, "")
	ad := g.AddNode(dfg.OpAdd, "")
	st := g.AddNode(dfg.OpStore, "")
	g.AddEdge(ld, ad)
	g.AddEdge(ad, st)
	g.MustFreeze()
	a := arch.Preset4x4()
	res, err := Map(g, a, Options{})
	if err != nil || !res.Success {
		t.Fatalf("map failed: %v %v", err, res)
	}
	if err := verify.Check(g, a, res.Mapping, nil); err != nil {
		t.Fatal(err)
	}
	for v, nd := range g.Nodes {
		if nd.Op.IsMem() && !a.PEs[res.Mapping.PlacePE[v]].MemCapable {
			t.Fatalf("mem op %d on non-mem PE", v)
		}
	}
}

func TestClusterRestriction(t *testing.T) {
	d := chainDFG(6)
	a := arch.Preset8x8()
	allowed := make([][]int, d.NumNodes())
	for i := range allowed {
		allowed[i] = []int{5}
	}
	res, err := Map(d, a, Options{AllowedClusters: allowed})
	if err != nil || !res.Success {
		t.Fatalf("map failed: %v", err)
	}
	for v := range d.Nodes {
		if a.ClusterOf(res.Mapping.PlacePE[v]) != 5 {
			t.Fatalf("node %d escaped cluster restriction", v)
		}
	}
	if err := verify.Check(d, a, res.Mapping, allowed); err != nil {
		t.Fatal(err)
	}
}

func TestAllowedClustersLengthChecked(t *testing.T) {
	if _, err := Map(chainDFG(3), arch.Preset4x4(), Options{AllowedClusters: make([][]int, 7)}); err == nil {
		t.Fatal("accepted wrong-length AllowedClusters")
	}
}

func TestBackEdgeTiming(t *testing.T) {
	g := dfg.New("rec")
	a0 := g.AddNode(dfg.OpAdd, "")
	a1 := g.AddNode(dfg.OpAdd, "")
	g.AddEdge(a0, a1)
	g.AddEdgeDist(a1, a0, 1)
	g.MustFreeze()
	a := arch.Preset4x4()
	res, err := Map(g, a, Options{})
	if err != nil || !res.Success {
		t.Fatalf("map failed: %v", err)
	}
	if err := verify.Check(g, a, res.Mapping, nil); err != nil {
		t.Fatal(err)
	}
	if res.MII < 2 {
		t.Fatalf("MII = %d, want >= 2 for a 2-op cycle", res.MII)
	}
}

func TestGreedyPackingInflatesII(t *testing.T) {
	// A wide kernel on a big array: greedy first-fit packs the corner
	// and pays crossbar congestion, so II should exceed MII.
	spec, err := kernels.ByName("conv2d")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Build(0.25)
	a := arch.Preset8x8()
	res, err := Map(d, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("ultrafast failed entirely")
	}
	if res.II <= res.MII {
		t.Fatalf("II=%d MII=%d: expected greedy placement to lose quality", res.II, res.MII)
	}
	if err := verify.Check(d, a, res.Mapping, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossbarCapRespected(t *testing.T) {
	// Recompute crossbar usage from the final mapping; it must fit.
	spec, _ := kernels.ByName("fir")
	d := spec.Build(0.25)
	a := arch.Preset8x8()
	opts := Options{CrossbarCap: 4}
	res, err := Map(d, a, opts)
	if err != nil || !res.Success {
		t.Fatalf("map failed: %v", err)
	}
	use := make(map[[2]int]int)
	for _, e := range d.Edges {
		src, dst := res.Mapping.PlacePE[e.From], res.Mapping.PlacePE[e.To]
		if src == dst {
			continue
		}
		slot := res.Mapping.PlaceT[e.To] % res.Mapping.II
		sr, sc := a.PEs[src].Row, a.PEs[src].Col
		dr, dc := a.PEs[dst].Row, a.PEs[dst].Col
		r, c := sr, sc
		for c != dc {
			use[[2]int{a.PEAt(r, c), slot}]++
			if dc > c {
				c++
			} else {
				c--
			}
		}
		for r != dr {
			use[[2]int{a.PEAt(r, c), slot}]++
			if dr > r {
				r++
			} else {
				r--
			}
		}
	}
	for k, n := range use {
		if n > opts.CrossbarCap {
			t.Fatalf("crossbar of PE %d slot %d used %d times (cap %d)", k[0], k[1], n, opts.CrossbarCap)
		}
	}
}

func TestDeterministic(t *testing.T) {
	spec, _ := kernels.ByName("cordic")
	d := spec.Build(0.2)
	a := arch.Preset8x8()
	r1, err := Map(d, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Map(d, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.II != r2.II {
		t.Fatal("non-deterministic II")
	}
}

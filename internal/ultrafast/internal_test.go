package ultrafast

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/verify"
)

func TestClaimPathWalksManhattan(t *testing.T) {
	a := arch.Preset4x4()
	st := &ufState{a: a, ii: 2, opts: &Options{CrossbarCap: 4}}
	st.xbarUse = make([]int, a.NumPEs()*2)
	var visited []int
	claim := func(pe, slot int) bool {
		visited = append(visited, pe)
		return true
	}
	// (0,0) -> (2,3): horizontal first (3 steps), then vertical (2 steps);
	// destination not claimed.
	if !st.claimPath(a.PEAt(0, 0), a.PEAt(2, 3), 0, claim) {
		t.Fatal("claimPath failed")
	}
	want := []int{a.PEAt(0, 0), a.PEAt(0, 1), a.PEAt(0, 2), a.PEAt(0, 3), a.PEAt(1, 3)}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestClaimPathSamePEFree(t *testing.T) {
	a := arch.Preset4x4()
	st := &ufState{a: a, ii: 1, opts: &Options{CrossbarCap: 1}}
	n := 0
	if !st.claimPath(3, 3, 0, func(pe, slot int) bool { n++; return true }) {
		t.Fatal("same-PE delivery must succeed")
	}
	if n != 0 {
		t.Fatal("same-PE delivery must not claim crossbars")
	}
}

func TestValidateRejectsBadTimings(t *testing.T) {
	g := dfg.New("t")
	x := g.AddNode(dfg.OpAdd, "")
	y := g.AddNode(dfg.OpAdd, "")
	g.AddEdge(x, y)
	g.MustFreeze()
	a := arch.Preset4x4()
	m := &verify.Mapping{Model: verify.ModelCrossbar, II: 1, PlacePE: []int{0, 1}, PlaceT: []int{1, 0}} // consumer before producer
	if err := verify.Check(g, a, m, nil); err == nil {
		t.Fatal("accepted time travel")
	}
	m2 := &verify.Mapping{Model: verify.ModelCrossbar, II: 1, PlacePE: []int{0, 1}, PlaceT: []int{0, 1}}
	if err := verify.Check(g, a, m2, nil); err != nil {
		t.Fatalf("rejected valid mapping: %v", err)
	}
	m3 := &verify.Mapping{Model: verify.ModelCrossbar, II: 1, PlacePE: []int{0, 0}, PlaceT: []int{0, 2}} // same FU slot (mod 1)
	if err := verify.Check(g, a, m3, nil); err == nil {
		t.Fatal("accepted FU slot collision")
	}
	if err := verify.Check(g, a, nil, nil); err == nil {
		t.Fatal("accepted nil mapping")
	}
}

func TestMaxIIRespected(t *testing.T) {
	// 20 ops with a tight crossbar on a 4x4 at MaxII=1: ResMII=2 > MaxII
	// means immediate failure without escalation.
	g := dfg.New("t")
	for i := 0; i < 20; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	g.MustFreeze()
	res, err := Map(g, arch.Preset4x4(), Options{MaxII: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("mapped 20 ops at II=1 on 16 PEs")
	}
}

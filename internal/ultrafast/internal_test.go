package ultrafast

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/verify"
)

func TestClaimPathWalksManhattan(t *testing.T) {
	a := arch.Preset4x4()
	st := &ufState{a: a, ii: 2, opts: &Options{CrossbarCap: 4}}
	st.xbarUse = make([]int, a.NumPEs()*2)
	// (0,0) -> (2,3): horizontal first (3 steps), then vertical (2 steps);
	// destination not claimed.
	if !st.claimPath(a.PEAt(0, 0), a.PEAt(2, 3), 0) {
		t.Fatal("claimPath failed")
	}
	var visited []int
	for _, idx := range st.claimed {
		visited = append(visited, idx/st.ii)
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
	st.xbarUse = make([]int, a.NumPEs())
	if !st.claimPath(3, 3, 0) {
		t.Fatal("same-PE delivery must succeed")
	}
	if len(st.claimed) != 0 {
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

// A (PE, cycle) probe — claim every operand path, or roll back — works
// on the state's scratch list and allocates nothing: it runs once per
// candidate PE per cycle per node per II.
func TestTransferProbeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	spec, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.25)
	g.MustFreeze()
	a := arch.Preset8x8()
	st := newState(g, a, &Options{CrossbarCap: 2})
	ii := a.MII(g)
	for ok := false; !ok; ii++ {
		if ii > 64 {
			t.Fatal("fir did not place")
		}
		_, ok = st.attempt(ii)
	}
	// Re-probe every placed node with operands at every PE: successes are
	// rolled back, failures roll themselves back part-way.
	probes, refused := 0, 0
	if n := testing.AllocsPerRun(10, func() {
		for _, v := range st.order {
			if len(g.InEdges(v)) == 0 {
				continue
			}
			for pe := 0; pe < a.NumPEs(); pe++ {
				probes++
				if st.tryClaimTransfers(v, pe, st.placeT[v]) {
					st.rollback()
				} else {
					refused++
				}
			}
		}
	}); n != 0 {
		t.Fatalf("transfer probes allocate: %.1f allocations per sweep", n)
	}
	if refused == 0 || refused == probes {
		t.Fatalf("%d of %d probes refused: the sweep must exercise both the claim and the rollback", refused, probes)
	}
	for idx, use := range st.xbarUse {
		if use < 0 || use > st.opts.CrossbarCap {
			t.Fatalf("xbarUse[%d] = %d after balanced claim/rollback", idx, use)
		}
	}
}

// Map builds its working set once: escalating through 18 IIs costs no
// more allocations than escalating through 5, beyond the doublings of
// the two per-II arrays. (Before, every attempt allocated four arrays
// and a candidate list per node.)
func TestMapAllocationsDoNotScaleWithAttempts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	spec, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.25)
	g.MustFreeze()
	a := arch.Preset8x8()
	run := func(cap int) (attempts int64, allocs float64) {
		before := mAttempts.Value()
		res, err := Map(g, a, Options{CrossbarCap: cap})
		if err != nil || !res.Success {
			t.Fatalf("cap %d: %+v, %v", cap, res, err)
		}
		attempts = mAttempts.Value() - before
		allocs = testing.AllocsPerRun(5, func() { Map(g, a, Options{CrossbarCap: cap}) })
		return attempts, allocs
	}
	fewAttempts, few := run(4)
	manyAttempts, many := run(1) // a one-slot crossbar congests: many more IIs
	if manyAttempts < 3*fewAttempts {
		t.Fatalf("attempts %d and %d: the tight crossbar should need several times more", fewAttempts, manyAttempts)
	}
	// Two arrays, each doubling at most log2(maxII/MII) times.
	if many > few+8 {
		t.Fatalf("%d attempts allocate %.0f times, %d attempts %.0f: allocations scale with attempts",
			manyAttempts, many, fewAttempts, few)
	}
}

// Guided UltraFast* starts at the clusters' own bound (arch.IIRange)
// instead of climbing to it from MII: fir@0.25 pinned to one 4-PE
// cluster of the 8x8 maps at the same II 21 in 3 attempts, not 20.
func TestGuidedStartSkipsInfeasibleIIs(t *testing.T) {
	spec, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.25)
	g.MustFreeze()
	allowed := make([][]int, g.NumNodes())
	for i := range allowed {
		allowed[i] = []int{0}
	}
	before := mAttempts.Value()
	res, err := Map(g, arch.Preset8x8(), Options{AllowedClusters: allowed})
	if err != nil || !res.Success {
		t.Fatalf("%+v, %v", res, err)
	}
	if attempts := mAttempts.Value() - before; res.II != 21 || attempts != 3 {
		t.Fatalf("II %d after %d attempts, want II 21 after 3", res.II, attempts)
	}
}

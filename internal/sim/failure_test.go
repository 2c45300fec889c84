package sim

import (
	"strings"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
	"panorama/internal/verify"
)

func findLink(t *testing.T, g *mrrg.Graph, from, to int) int {
	t.Helper()
	for li := 0; li < g.NumLinks(); li++ {
		if f, to2 := g.LinkEnds(li); f == from && to2 == to {
			return li
		}
	}
	t.Fatalf("no MRRG link %d -> %d", from, to)
	return -1
}

func path(nodes ...int) []int32 {
	out := make([]int32, len(nodes))
	for i, n := range nodes {
		out[i] = int32(n)
	}
	return out
}

// conflictFixture is a hand-routed mapping on Preset4x4 at II=2 with
// two constants feeding two adds. With throughRegister false, each
// value parks in its own producer's register file and the execution is
// conflict-free; with true, B's value is shipped to pe0 immediately
// and parked in pe0's register 0 — the same capacity-1 register
// holding A's value in the same cycles.
func conflictFixture(t *testing.T, throughRegister bool) (*dfg.Graph, *arch.CGRA, *verify.Mapping) {
	t.Helper()
	a := arch.Preset4x4()
	d := dfg.New("conflict")
	d.AddNode(dfg.OpConst, "A")
	d.AddNode(dfg.OpConst, "B")
	d.AddNode(dfg.OpAdd, "C")
	d.AddNode(dfg.OpAdd, "D")
	d.AddEdgeDist(0, 2, 0)
	d.AddEdgeDist(1, 3, 0)
	d.MustFreeze()

	const ii = 2
	g, err := mrrg.New(a, ii)
	if err != nil {
		t.Fatal(err)
	}
	l01 := findLink(t, g, 0, 1)
	l40 := findLink(t, g, 4, 0)
	m := &verify.Mapping{
		II:      ii,
		PlacePE: []int{0, 4, 1, 0},
		PlaceT:  []int{0, 0, 3, 3},
		Routes: [][]int32{
			path(g.ResNode(0, 1), g.WPortNode(0, 1), g.RegNode(0, 0, 2),
				g.RegNode(0, 0, 3), g.RPortNode(0, 3), g.LinkNode(l01, 3), g.FUNode(1, 3)),
			path(g.ResNode(4, 1), g.WPortNode(4, 1), g.RegNode(4, 0, 2),
				g.RegNode(4, 0, 3), g.RPortNode(4, 3), g.LinkNode(l40, 3), g.FUNode(0, 3)),
		},
	}
	if throughRegister {
		m.Routes[1] = path(g.ResNode(4, 1), g.LinkNode(l40, 1), g.WPortNode(0, 1),
			g.RegNode(0, 0, 2), g.RegNode(0, 0, 3), g.RPortNode(0, 3), g.FUNode(0, 3))
	}
	return d, a, m
}

func TestHandRoutedFixtureExecutes(t *testing.T) {
	d, a, m := conflictFixture(t, false)
	if err := Verify(d, a, m, 4); err != nil {
		t.Fatalf("conflict-free hand routing diverges: %v", err)
	}
}

// TestExecuteAbortsOnResourceConflict drives two distinct live values
// into one capacity-1 register in the same cycle and demands the
// cycle-accurate replay abort with the occupancy diagnostic rather
// than silently overwrite one of them.
func TestExecuteAbortsOnResourceConflict(t *testing.T) {
	d, a, m := conflictFixture(t, true)
	_, err := Execute(d, a, m, 3)
	if err == nil {
		t.Fatal("Execute accepted two values in a capacity-1 register")
	}
	if !strings.Contains(err.Error(), "resource conflict") {
		t.Fatalf("want an occupancy diagnostic, got: %v", err)
	}
}

// TestExecuteDetectsLateArrival delays a consumer past its operand's
// physical arrival cycle and demands the replay report the arrival
// mismatch (the value would have to wait in the wires, which the
// hardware cannot do).
func TestExecuteDetectsLateArrival(t *testing.T) {
	a := arch.Preset4x4()
	d := dfg.New("late")
	d.AddNode(dfg.OpConst, "")
	d.AddNode(dfg.OpAdd, "")
	d.AddEdgeDist(0, 1, 0)
	d.MustFreeze()
	const ii = 2
	g, err := mrrg.New(a, ii)
	if err != nil {
		t.Fatal(err)
	}
	l01 := findLink(t, g, 0, 1)
	m := &verify.Mapping{II: ii, PlacePE: []int{0, 1}, PlaceT: []int{0, 1},
		Routes: [][]int32{path(g.ResNode(0, 1), g.LinkNode(l01, 1), g.FUNode(1, 1))}}
	if err := Verify(d, a, m, 3); err != nil {
		t.Fatalf("base fixture diverges: %v", err)
	}
	m.PlaceT[1] = 2 // consumer now issues one cycle after the value lands
	_, err = Execute(d, a, m, 3)
	if err == nil {
		t.Fatal("Execute accepted a value arriving before its consumer issues")
	}
	if !strings.Contains(err.Error(), "arrives at cycle") {
		t.Fatalf("want an arrival diagnostic, got: %v", err)
	}
}

func TestExecuteRejectsEmptyRoute(t *testing.T) {
	d, a, m := conflictFixture(t, false)
	m.Routes[0] = nil
	_, err := Execute(d, a, m, 2)
	if err == nil || !strings.Contains(err.Error(), "empty route") {
		t.Fatalf("want an empty-route diagnostic, got: %v", err)
	}
}

func TestExecuteRejectsMissingMRRGEdge(t *testing.T) {
	a := arch.Preset4x4()
	d := dfg.New("teleport")
	d.AddNode(dfg.OpConst, "")
	d.AddNode(dfg.OpAdd, "")
	d.AddEdgeDist(0, 1, 0)
	d.MustFreeze()
	const ii = 2
	g, err := mrrg.New(a, ii)
	if err != nil {
		t.Fatal(err)
	}
	// pe0 and pe2 are not adjacent: the direct hop does not exist.
	m := &verify.Mapping{II: ii, PlacePE: []int{0, 2}, PlaceT: []int{0, 1},
		Routes: [][]int32{path(g.ResNode(0, 1), g.FUNode(2, 1))}}
	_, err = Execute(d, a, m, 2)
	if err == nil || !strings.Contains(err.Error(), "missing MRRG edge") {
		t.Fatalf("want a missing-edge diagnostic, got: %v", err)
	}
}

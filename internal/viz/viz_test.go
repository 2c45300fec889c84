package viz

import (
	"strings"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/clustermap"
	"panorama/internal/dfg"
	"panorama/internal/spectral"
	"panorama/internal/spr"
)

func TestNodeLabel(t *testing.T) {
	if nodeLabel(0) != "A" || nodeLabel(25) != "Z" {
		t.Fatal("single letters wrong")
	}
	if nodeLabel(26) != "A1" || nodeLabel(27) != "B1" {
		t.Fatalf("wrap labels wrong: %s %s", nodeLabel(26), nodeLabel(27))
	}
}

func lineCDG(sizes []int) *spectral.CDG {
	k := len(sizes)
	c := &spectral.CDG{K: k, Sizes: sizes, Weight: make([][]int, k), Members: make([][]int, k)}
	for i := range c.Weight {
		c.Weight[i] = make([]int, k)
	}
	for i := 0; i+1 < k; i++ {
		c.Weight[i][i+1] = 1
	}
	return c
}

func TestClusterGridContainsAllLabels(t *testing.T) {
	cdg := lineCDG([]int{8, 8, 8, 8})
	res, err := clustermap.MapWithEscalation(cdg, 2, 2, clustermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := ClusterGrid(res)
	for _, want := range []string{"A", "B", "C", "D", "+"} {
		if !strings.Contains(out, want) {
			t.Fatalf("grid missing %q:\n%s", want, out)
		}
	}
	// Grid has R+1 separator lines.
	if got := strings.Count(out, "+--"); got < 2 {
		t.Fatalf("grid structure missing:\n%s", out)
	}
}

func TestTimeExtendedShowsAllNodes(t *testing.T) {
	g := dfg.New("t")
	a0 := g.AddNode(dfg.OpAdd, "")
	a1 := g.AddNode(dfg.OpAdd, "")
	g.AddEdge(a0, a1)
	g.MustFreeze()
	a := arch.Preset4x4()
	res, err := spr.Map(g, a, spr.Options{Seed: 1})
	if err != nil || !res.Success {
		t.Fatalf("map failed: %v", err)
	}
	out, err := TimeExtended(g, a, res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "t=0") {
		t.Fatalf("missing slot header:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("missing node ids:\n%s", out)
	}
}

func TestPartitionSummary(t *testing.T) {
	g := dfg.New("t")
	g.AddNode(dfg.OpLoad, "")
	g.AddNode(dfg.OpMul, "")
	g.AddNode(dfg.OpMul, "")
	g.MustFreeze()
	out := PartitionSummary(g, []int{0, 1, 1}, 2)
	if !strings.Contains(out, "cluster A: 1 nodes (load x1)") {
		t.Fatalf("summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "mul x2") {
		t.Fatalf("summary missing op counts:\n%s", out)
	}
}

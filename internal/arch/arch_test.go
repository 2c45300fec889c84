package arch

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"panorama/internal/dfg"
)

func TestNewRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Rows: 0, Cols: 4, ClusterRows: 1, ClusterCols: 1},
		{Rows: 4, Cols: 4, ClusterRows: 0, ClusterCols: 1},
		{Rows: 4, Cols: 4, ClusterRows: 3, ClusterCols: 1}, // 4 % 3 != 0
		{Rows: 4, Cols: 4, ClusterRows: 1, ClusterCols: 1, InterClusterLinks: -1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
}

func TestDefaults(t *testing.T) {
	g, err := New(Config{Rows: 4, Cols: 4, ClusterRows: 2, ClusterCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRegs != 8 || g.RFReadPorts != 4 || g.RFWritePorts != 4 {
		t.Fatalf("defaults not applied: %+v", g.Config)
	}
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		g             *CGRA
		pes, clusters int
		memPEs        int
		clusterRows   int
	}{
		{Preset4x4(), 16, 1, 4, 1},
		{Preset8x8(), 64, 16, 32, 4},
		{Preset9x9(), 81, 9, 27, 3},
		{Preset16x16(), 256, 16, 64, 4},
	}
	for _, tc := range cases {
		if tc.g.NumPEs() != tc.pes {
			t.Errorf("%s: NumPEs = %d, want %d", tc.g.Name, tc.g.NumPEs(), tc.pes)
		}
		if tc.g.NumClusters() != tc.clusters {
			t.Errorf("%s: NumClusters = %d, want %d", tc.g.Name, tc.g.NumClusters(), tc.clusters)
		}
		if len(tc.g.MemPEs()) != tc.memPEs {
			t.Errorf("%s: MemPEs = %d, want %d", tc.g.Name, len(tc.g.MemPEs()), tc.memPEs)
		}
		if tc.g.ClusterRows != tc.clusterRows {
			t.Errorf("%s: ClusterRows = %d, want %d", tc.g.Name, tc.g.ClusterRows, tc.clusterRows)
		}
	}
}

func TestClusterOfPartitionsPEs(t *testing.T) {
	g := Preset16x16()
	count := make([]int, g.NumClusters())
	for pe := 0; pe < g.NumPEs(); pe++ {
		count[g.ClusterOf(pe)]++
	}
	for cid, n := range count {
		if n != 16 {
			t.Fatalf("cluster %d has %d PEs, want 16", cid, n)
		}
	}
	// PEsInCluster agrees with ClusterOf.
	for cid := 0; cid < g.NumClusters(); cid++ {
		for _, pe := range g.PEsInCluster(cid) {
			if g.ClusterOf(pe) != cid {
				t.Fatalf("PE %d listed in cluster %d but ClusterOf says %d", pe, cid, g.ClusterOf(pe))
			}
		}
	}
}

func TestClusterCoordRoundTrip(t *testing.T) {
	g := Preset16x16()
	for cid := 0; cid < g.NumClusters(); cid++ {
		r, c := g.ClusterCoord(cid)
		if g.ClusterID(r, c) != cid {
			t.Fatalf("coord round trip failed for cluster %d", cid)
		}
	}
}

func TestMemPEsAreClusterLeftmost(t *testing.T) {
	g := Preset16x16()
	for _, pe := range g.PEs {
		wantMem := pe.Col%4 == 0
		if pe.MemCapable != wantMem {
			t.Fatalf("PE (%d,%d): MemCapable=%v, want %v", pe.Row, pe.Col, pe.MemCapable, wantMem)
		}
	}
}

func TestNeighborsAreSingleHopOrExpress(t *testing.T) {
	g := Preset16x16()
	express := make(map[[2]int]bool)
	for _, l := range g.Links {
		if l.InterCluster {
			express[[2]int{l.From, l.To}] = true
		}
	}
	for pe := 0; pe < g.NumPEs(); pe++ {
		for _, nb := range g.Neighbors(pe) {
			if g.PEDistance(pe, nb) != 1 && !express[[2]int{pe, nb}] {
				t.Fatalf("non-express link %d->%d spans distance %d", pe, nb, g.PEDistance(pe, nb))
			}
		}
	}
}

func TestLinksAreSymmetric(t *testing.T) {
	g := Preset8x8()
	set := make(map[[2]int]bool, len(g.Links))
	for _, l := range g.Links {
		set[[2]int{l.From, l.To}] = true
	}
	for _, l := range g.Links {
		if !set[[2]int{l.To, l.From}] {
			t.Fatalf("link %d->%d has no reverse", l.From, l.To)
		}
	}
}

func TestInterClusterLinkCount(t *testing.T) {
	g := Preset16x16()
	// 4x4 cluster grid: 3*4 horizontal + 4*3 vertical adjacent pairs = 24
	// pairs; 6 links each, both directions = 24*6*2 directed links.
	n := 0
	for _, l := range g.Links {
		if l.InterCluster {
			n++
		}
	}
	if want := 24 * 6 * 2; n != want {
		t.Fatalf("inter-cluster directed links = %d, want %d", n, want)
	}
}

func TestInterClusterLinksConnectAdjacentClusters(t *testing.T) {
	g := Preset16x16()
	for _, l := range g.Links {
		if !l.InterCluster {
			continue
		}
		ca, cb := g.ClusterOf(l.From), g.ClusterOf(l.To)
		if ca == cb {
			t.Fatalf("express link %d->%d inside one cluster", l.From, l.To)
		}
		if g.ClusterDistance(ca, cb) != 1 {
			t.Fatalf("express link %d->%d connects non-adjacent clusters %d,%d", l.From, l.To, ca, cb)
		}
	}
}

func TestClusterDistance(t *testing.T) {
	g := Preset16x16()
	if d := g.ClusterDistance(g.ClusterID(0, 0), g.ClusterID(3, 3)); d != 6 {
		t.Fatalf("ClusterDistance corner-to-corner = %d, want 6", d)
	}
	if d := g.ClusterDistance(2, 2); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

// TestMinElapsedIsDirected builds a three-PE line from its JSON
// description, keeps only its left-to-right wires and checks that the
// table follows the links' direction: 0 reaches 2 over two hops, while
// nothing reaches back.
func TestMinElapsedIsDirected(t *testing.T) {
	g, err := ReadJSON(strings.NewReader(`{"name":"line","rows":1,"cols":3,"clusterRows":1,"clusterCols":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MinElapsed(2, 0); got != 1 {
		t.Fatalf("both-way line: MinElapsed(2, 0) = %d, want 1", got)
	}
	var oneWay []Link
	for _, l := range g.Links {
		if l.To > l.From {
			oneWay = append(oneWay, l)
		}
	}
	g.Links, g.memPEs = oneWay, nil
	g.buildIndexes()
	for _, tc := range []struct{ p, q, want int }{
		{0, 0, 0}, {0, 1, 0}, {0, 2, 1}, {1, 2, 0},
		{1, 0, Unreachable}, {2, 0, Unreachable}, {2, 1, Unreachable},
	} {
		if got := g.MinElapsed(tc.p, tc.q); got != tc.want {
			t.Errorf("one-way line: MinElapsed(%d, %d) = %d, want %d", tc.p, tc.q, got, tc.want)
		}
	}
}

// TestMinElapsedUndercutsManhattan shows why PEDistance cannot bound a
// route's cycles: on a mesh alone the two agree, but an express link
// crosses three columns in one hop.
func TestMinElapsedUndercutsManhattan(t *testing.T) {
	mesh := Preset4x4()
	for p := 0; p < mesh.NumPEs(); p++ {
		for q := 0; q < mesh.NumPEs(); q++ {
			if got, want := mesh.MinElapsed(p, q), max(0, mesh.PEDistance(p, q)-1); got != want {
				t.Fatalf("4x4 mesh: MinElapsed(%d, %d) = %d, want %d", p, q, got, want)
			}
		}
	}
	g := Preset16x16()
	under := 0
	for p := 0; p < g.NumPEs(); p++ {
		for q := 0; q < g.NumPEs(); q++ {
			me, manhattan := g.MinElapsed(p, q), max(0, g.PEDistance(p, q)-1)
			if me > manhattan {
				t.Fatalf("16x16: MinElapsed(%d, %d) = %d above the mesh bound %d", p, q, me, manhattan)
			}
			if me < manhattan {
				under++
			}
		}
	}
	for _, l := range g.Links {
		if l.InterCluster && g.PEDistance(l.From, l.To) > 1 && g.MinElapsed(l.From, l.To) != 0 {
			t.Fatalf("express link %d->%d: MinElapsed = %d, want 0", l.From, l.To, g.MinElapsed(l.From, l.To))
		}
	}
	if under == 0 {
		t.Fatal("16x16: no PE pair where the express links beat PEDistance-1")
	}
	t.Logf("16x16: %d of %d PE pairs need fewer cycles than PEDistance-1", under, g.NumPEs()*g.NumPEs())
}

func buildDFG(nodes, memOps int) *dfg.Graph {
	g := dfg.New("t")
	for i := 0; i < nodes; i++ {
		op := dfg.OpAdd
		if i < memOps {
			op = dfg.OpLoad
		}
		g.AddNode(op, "")
	}
	for i := 0; i+1 < nodes; i++ {
		g.AddEdge(i, i+1)
	}
	g.MustFreeze()
	return g
}

func TestResMII(t *testing.T) {
	g := Preset4x4() // 16 PEs, 4 mem PEs
	if mii := g.ResMII(buildDFG(16, 0)); mii != 1 {
		t.Fatalf("ResMII(16 ops) = %d, want 1", mii)
	}
	if mii := g.ResMII(buildDFG(17, 0)); mii != 2 {
		t.Fatalf("ResMII(17 ops) = %d, want 2", mii)
	}
	// 9 mem ops on 4 mem PEs forces II >= 3 even though 16 PEs fit all ops.
	if mii := g.ResMII(buildDFG(16, 9)); mii != 3 {
		t.Fatalf("ResMII(9 mem ops) = %d, want 3", mii)
	}
}

func TestMIIUsesMax(t *testing.T) {
	g := Preset16x16()
	d := dfg.New("rec")
	for i := 0; i < 4; i++ {
		d.AddNode(dfg.OpAdd, "")
	}
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 3)
	d.AddEdgeDist(3, 0, 1) // RecMII 4 dominates ResMII 1
	d.MustFreeze()
	if mii := g.MII(d); mii != 4 {
		t.Fatalf("MII = %d, want 4", mii)
	}
}

func TestStringIncludesShape(t *testing.T) {
	s := Preset16x16().String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String too short: %q", s)
	}
}

// Property: every PE id maps into a valid cluster and back.
func TestQuickClusterContainment(t *testing.T) {
	g := Preset16x16()
	f := func(x uint16) bool {
		pe := int(x) % g.NumPEs()
		cid := g.ClusterOf(pe)
		if cid < 0 || cid >= g.NumClusters() {
			return false
		}
		for _, p := range g.PEsInCluster(cid) {
			if p == pe {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterMIIBounds(t *testing.T) {
	a := Preset8x8() // 4 PEs per cluster, 2 memory PEs per cluster
	g := dfg.New("t")
	for i := 0; i < 9; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	g.MustFreeze()
	// 9 ALU ops pinned to cluster 0 (4 PEs): bound = ceil(9/4) = 3.
	allowed := make([][]int, 9)
	for i := range allowed {
		allowed[i] = []int{0}
	}
	if got := a.ClusterMII(g, allowed); got != 3 {
		t.Fatalf("ClusterMII = %d, want 3", got)
	}
	// Multi-cluster nodes are charged to none.
	for i := range allowed {
		allowed[i] = []int{0, 1}
	}
	if got := a.ClusterMII(g, allowed); got != 1 {
		t.Fatalf("ClusterMII multi = %d, want 1", got)
	}
}

func TestClusterMIIMemPressure(t *testing.T) {
	a := Preset8x8()
	g := dfg.New("t")
	for i := 0; i < 5; i++ {
		g.AddNode(dfg.OpLoad, "")
	}
	g.MustFreeze()
	allowed := make([][]int, 5)
	for i := range allowed {
		allowed[i] = []int{0}
	}
	// 5 loads on 2 memory PEs: ceil(5/2) = 3.
	if got := a.ClusterMII(g, allowed); got != 3 {
		t.Fatalf("ClusterMII = %d, want 3", got)
	}
}

func TestQoM(t *testing.T) {
	if got := QoM(3, 4); got != 0.75 {
		t.Fatalf("QoM(3,4) = %v, want 0.75", got)
	}
	// A failed run carries II 0 and must score 0, not divide by it.
	if got := QoM(3, 0); got != 0 {
		t.Fatalf("QoM(3,0) = %v, want 0", got)
	}
}

// TestIIRange pins the one II-escalation policy every lower mapper
// shares.
func TestIIRange(t *testing.T) {
	a := Preset8x8() // 64 PEs, 4 per cluster, 2 of them memory-capable
	graph := func(n int, op dfg.Op) *dfg.Graph {
		g := dfg.New("t")
		for i := 0; i < n; i++ {
			g.AddNode(op, "")
		}
		g.MustFreeze()
		return g
	}
	pinned := func(n int) [][]int {
		allowed := make([][]int, n)
		for i := range allowed {
			allowed[i] = []int{0}
		}
		return allowed
	}
	// A fabric whose cluster 0 lost its memory ports: a load pinned
	// there makes ClusterMII return the InfeasibleMII sentinel.
	memless := Preset8x8()
	for _, pe := range memless.PEsInCluster(0) {
		memless.PEs[pe].MemCapable = false
	}

	for _, tc := range []struct {
		name         string
		a            *CGRA
		g            *dfg.Graph
		allowed      [][]int
		maxII, slack int
		want         IIRange
	}{
		{"unguided", a, graph(9, dfg.OpAdd), nil, 0, 8, IIRange{MII: 1, Start: 1, End: 9}},
		{"unguided under a cap", a, graph(9, dfg.OpAdd), nil, 3, 8, IIRange{MII: 1, Start: 1, End: 3}},
		// 9 ALU ops on the 4 PEs of cluster 0: the bound is ceil(9/4).
		{"guided bound above MII", a, graph(9, dfg.OpAdd), pinned(9), 0, 8, IIRange{MII: 1, Start: 3, End: 9}},
		// 41 ops: bound 11, and MII+slack = 3 lies below Start+2.
		{"unset maxII reaches two past the bound", a, graph(41, dfg.OpAdd), pinned(41), 0, 2, IIRange{MII: 1, Start: 11, End: 13}},
		{"maxII below the start is empty", a, graph(9, dfg.OpAdd), pinned(9), 2, 8, IIRange{MII: 1, Start: 3, End: 2}},
		// 280 ops: MII ceil(280/64) = 5, cluster bound 70 > 5+64.
		{"bound above MII+64 is empty", a, graph(280, dfg.OpAdd), pinned(280), 0, 8, IIRange{MII: 5, Start: 70, End: 69}},
		{"just inside MII+64 is not", a, graph(276, dfg.OpAdd), pinned(276), 0, 8, IIRange{MII: 5, Start: 69, End: 71}},
		{"the InfeasibleMII sentinel is empty", memless, graph(1, dfg.OpLoad), pinned(1), 0, 8,
			IIRange{MII: 1, Start: InfeasibleMII, End: InfeasibleMII - 1}},
	} {
		got, err := tc.a.IIRange(tc.g, tc.allowed, tc.maxII, tc.slack)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: IIRange = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	for _, n := range []int{8, 10} {
		_, err := a.IIRange(graph(9, dfg.OpAdd), make([][]int, n), 0, 8)
		var re *RestrictionError
		if !errors.As(err, &re) || re.Entries != n || re.Nodes != 9 {
			t.Errorf("%d entries for 9 nodes: err = %v, want a RestrictionError", n, err)
		}
	}
}

func TestPresetByName(t *testing.T) {
	for name, want := range map[string]*CGRA{"4x4": Preset4x4(), "8x8": Preset8x8(), "9x9": Preset9x9(), "16x16": Preset16x16()} {
		got, err := Preset(name)
		if err != nil || got.String() != want.String() {
			t.Errorf("Preset(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	_, err := Preset("3x3")
	if err == nil || err.Error() != `unknown architecture "3x3" (want 4x4, 8x8, 9x9, 16x16)` {
		t.Fatalf("Preset(3x3): %v", err)
	}
}

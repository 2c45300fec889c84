package dfg

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds a linear chain a0 -> a1 -> ... -> a(n-1).
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	g := New("chain")
	for i := 0; i < n; i++ {
		g.AddNode(OpAdd, "")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	if err := g.Freeze(); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	return g
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpLoad.String() != "load" {
		t.Fatalf("unexpected op names: %v %v", OpAdd, OpLoad)
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("out-of-range op string = %q", got)
	}
}

func TestOpIsMem(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Fatal("load/store must be memory ops")
	}
	if OpAdd.IsMem() || OpConst.IsMem() {
		t.Fatal("add/const must not be memory ops")
	}
}

func TestOpLatency(t *testing.T) {
	if OpAdd.Latency() != 1 {
		t.Fatalf("add latency = %d, want 1", OpAdd.Latency())
	}
	if OpLoad.Latency() != 2 {
		t.Fatalf("load latency = %d, want 2", OpLoad.Latency())
	}
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New("t")
	for i := 0; i < 5; i++ {
		if id := g.AddNode(OpAdd, ""); id != i {
			t.Fatalf("AddNode returned %d, want %d", id, i)
		}
	}
}

func TestValidateRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"out of range", func() *Graph {
			g := New("t")
			g.AddNode(OpAdd, "")
			g.AddEdge(0, 3)
			return g
		}},
		{"self loop", func() *Graph {
			g := New("t")
			g.AddNode(OpAdd, "")
			g.AddEdge(0, 0)
			return g
		}},
		{"negative dist", func() *Graph {
			g := New("t")
			g.AddNode(OpAdd, "")
			g.AddNode(OpAdd, "")
			g.AddEdgeDist(0, 1, -1)
			return g
		}},
		{"duplicate edge", func() *Graph {
			g := New("t")
			g.AddNode(OpAdd, "")
			g.AddNode(OpAdd, "")
			g.AddEdge(0, 1)
			g.AddEdge(0, 1)
			return g
		}},
		{"forward cycle", func() *Graph {
			g := New("t")
			g.AddNode(OpAdd, "")
			g.AddNode(OpAdd, "")
			g.AddEdge(0, 1)
			g.AddEdge(1, 0)
			return g
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build().Validate(); err == nil {
				t.Fatal("Validate accepted invalid graph")
			}
		})
	}
}

func TestValidateAcceptsRecurrenceCycle(t *testing.T) {
	g := New("t")
	g.AddNode(OpAdd, "")
	g.AddNode(OpAdd, "")
	g.AddEdge(0, 1)
	g.AddEdgeDist(1, 0, 1) // carried dependency closes the cycle
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate rejected recurrence cycle: %v", err)
	}
}

func TestFreezeIsIdempotent(t *testing.T) {
	g := chain(t, 3)
	if err := g.Freeze(); err != nil {
		t.Fatalf("second freeze: %v", err)
	}
}

func TestMutateAfterFreezePanics(t *testing.T) {
	g := chain(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Freeze did not panic")
		}
	}()
	g.AddNode(OpAdd, "")
}

func TestSuccsPreds(t *testing.T) {
	g := New("t")
	a := g.AddNode(OpLoad, "a")
	b := g.AddNode(OpLoad, "b")
	c := g.AddNode(OpMul, "c")
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	g.MustFreeze()
	if got := g.Succs(a); len(got) != 1 || got[0] != c {
		t.Fatalf("Succs(a) = %v", got)
	}
	if got := g.Preds(c); len(got) != 2 {
		t.Fatalf("Preds(c) = %v", got)
	}
	if g.InDeg(c) != 2 || g.OutDeg(c) != 0 || g.Degree(c) != 2 {
		t.Fatalf("degrees of c wrong: in=%d out=%d", g.InDeg(c), g.OutDeg(c))
	}
}

// TestEdgeIndex checks InEdges/OutEdges against a scan of Edges on a
// graph with fan-in, fan-out, a recurrence edge and a self-loop.
func TestEdgeIndex(t *testing.T) {
	g := New("t")
	for i := 0; i < 4; i++ {
		g.AddNode(OpAdd, "")
	}
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdgeDist(3, 0, 1)
	g.AddEdgeDist(2, 2, 1)
	g.AddEdge(0, 3)
	g.MustFreeze()
	for v := range g.Nodes {
		var in, out []int
		for i, e := range g.Edges {
			if e.To == v {
				in = append(in, i)
			}
			if e.From == v {
				out = append(out, i)
			}
		}
		if got := g.InEdges(v); !reflect.DeepEqual(got, in) {
			t.Errorf("InEdges(%d) = %v, want %v", v, got, in)
		}
		if got := g.OutEdges(v); !reflect.DeepEqual(got, out) {
			t.Errorf("OutEdges(%d) = %v, want %v", v, got, out)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	g := New("t")
	hub := g.AddNode(OpConst, "hub")
	for i := 0; i < 7; i++ {
		v := g.AddNode(OpAdd, "")
		g.AddEdge(hub, v)
	}
	g.MustFreeze()
	if got := g.MaxDegree(); got != 7 {
		t.Fatalf("MaxDegree = %d, want 7", got)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := New("t")
	n := 20
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		g.AddNode(OpAdd, "")
	}
	// random DAG: edges only from lower to higher id
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				g.AddEdge(i, j)
			}
		}
	}
	g.MustFreeze()
	pos := make([]int, n)
	for p, v := range g.TopoOrder() {
		pos[v] = p
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topo order violates edge %d->%d", e.From, e.To)
		}
	}
}

func TestASAPALAP(t *testing.T) {
	// Diamond: 0 -> {1,2} -> 3, plus a long tail 3 -> 4.
	g := New("t")
	for i := 0; i < 5; i++ {
		g.AddNode(OpAdd, "")
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.MustFreeze()
	asap := g.ASAP()
	want := []int{0, 1, 1, 2, 3}
	for i, w := range want {
		if asap[i] != w {
			t.Fatalf("ASAP[%d] = %d, want %d (all: %v)", i, asap[i], w, asap)
		}
	}
	alap := g.ALAP()
	for i := range asap {
		if alap[i] < asap[i] {
			t.Fatalf("ALAP[%d]=%d < ASAP[%d]=%d", i, alap[i], i, asap[i])
		}
	}
	// Nodes on the critical path have zero slack.
	for _, v := range []int{0, 3, 4} {
		if alap[v] != asap[v] {
			t.Fatalf("critical node %d has slack %d", v, alap[v]-asap[v])
		}
	}
}

func TestASAPUsesLatency(t *testing.T) {
	g := New("t")
	ld := g.AddNode(OpLoad, "")
	ad := g.AddNode(OpAdd, "")
	g.AddEdge(ld, ad)
	g.MustFreeze()
	asap := g.ASAP()
	if asap[ad] != 2 {
		t.Fatalf("ASAP after load = %d, want 2 (load latency)", asap[ad])
	}
}

func TestCriticalPathLength(t *testing.T) {
	g := chain(t, 6)
	if got := g.CriticalPathLength(); got != 5 {
		t.Fatalf("CriticalPathLength = %d, want 5", got)
	}
}

func TestRecMIINoBackEdges(t *testing.T) {
	g := chain(t, 10)
	if got := g.RecMII(); got != 1 {
		t.Fatalf("RecMII of DAG = %d, want 1", got)
	}
}

func TestRecMIISimpleCycle(t *testing.T) {
	// 3-node cycle with distance 1: RecMII = ceil(3/1) = 3.
	g := New("t")
	for i := 0; i < 3; i++ {
		g.AddNode(OpAdd, "")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdgeDist(2, 0, 1)
	g.MustFreeze()
	if got := g.RecMII(); got != 3 {
		t.Fatalf("RecMII = %d, want 3", got)
	}
}

func TestRecMIIDistanceTwo(t *testing.T) {
	// 4-latency cycle carried over distance 2: RecMII = 2.
	g := New("t")
	for i := 0; i < 4; i++ {
		g.AddNode(OpAdd, "")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdgeDist(3, 0, 2)
	g.MustFreeze()
	if got := g.RecMII(); got != 2 {
		t.Fatalf("RecMII = %d, want 2", got)
	}
}

func TestRecMIITakesWorstCycle(t *testing.T) {
	g := New("t")
	for i := 0; i < 6; i++ {
		g.AddNode(OpAdd, "")
	}
	// Cycle A: 0->1, 1->0 dist 1 (RecMII 2).
	g.AddEdge(0, 1)
	g.AddEdgeDist(1, 0, 1)
	// Cycle B: 2->3->4->5, 5->2 dist 1 (RecMII 4).
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdgeDist(5, 2, 1)
	g.MustFreeze()
	if got := g.RecMII(); got != 4 {
		t.Fatalf("RecMII = %d, want 4", got)
	}
}

func TestUndirectedNeighborsSymmetric(t *testing.T) {
	g := New("t")
	a := g.AddNode(OpAdd, "")
	b := g.AddNode(OpAdd, "")
	c := g.AddNode(OpAdd, "")
	g.AddEdge(a, b)
	g.AddEdgeDist(c, a, 1)
	g.MustFreeze()
	adj := g.UndirectedNeighbors()
	has := func(v, w int) bool {
		for _, x := range adj[v] {
			if x == w {
				return true
			}
		}
		return false
	}
	for _, e := range g.Edges {
		if !has(e.From, e.To) || !has(e.To, e.From) {
			t.Fatalf("adjacency not symmetric for edge %v", e)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New("t")
	for i := 0; i < 6; i++ {
		g.AddNode(OpAdd, "")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.MustFreeze()
	comp, n := g.ConnectedComponents()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("0,1,2 not in same component: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatalf("bad components: %v", comp)
	}
}

func TestComputeStats(t *testing.T) {
	g := New("t")
	ld := g.AddNode(OpLoad, "")
	ad := g.AddNode(OpAdd, "")
	st := g.AddNode(OpStore, "")
	g.AddEdge(ld, ad)
	g.AddEdge(ad, st)
	g.AddEdgeDist(ad, ad, 1)
	g.MustFreeze()
	s := g.ComputeStats()
	if s.Nodes != 3 || s.Edges != 3 || s.BackEdges != 1 || s.MemOps != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.RecMII != 1 {
		t.Fatalf("RecMII = %d, want 1 (self-recurrence latency 1 dist 1)", s.RecMII)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New("roundtrip")
	a := g.AddNode(OpLoad, "x")
	b := g.AddNode(OpMul, "")
	g.AddEdge(a, b)
	g.AddEdgeDist(b, b, 2)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var h Graph
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if h.Name != g.Name || len(h.Nodes) != 2 || len(h.Edges) != 2 {
		t.Fatalf("round trip mismatch: %+v", h)
	}
	if h.Nodes[0].Op != OpLoad || h.Nodes[0].Name != "x" {
		t.Fatalf("node content lost: %+v", h.Nodes[0])
	}
	if h.Edges[1].Dist != 2 {
		t.Fatalf("edge distance lost: %+v", h.Edges[1])
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	bad := `{"name":"x","nodes":[{"id":0,"op":1}],"edges":[{"from":0,"to":5}]}`
	var g Graph
	if err := json.Unmarshal([]byte(bad), &g); err == nil {
		t.Fatal("unmarshal accepted invalid graph")
	}
}

func TestWriteDOT(t *testing.T) {
	g := New("dot")
	a := g.AddNode(OpAdd, "acc")
	b := g.AddNode(OpStore, "")
	g.AddEdge(a, b)
	g.AddEdgeDist(a, a, 1)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "style=dashed", "d=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// Regression: node and graph names containing DOT metacharacters must
// be escaped, not interpolated raw into the quoted label (a name with
// a quote used to terminate the label string and produce invalid DOT).
func TestWriteDOTEscapesNames(t *testing.T) {
	g := New(`ker"nel`)
	a := g.AddNode(OpAdd, `acc "x" \ y`)
	b := g.AddNode(OpStore, "line1\nline2")
	g.AddEdge(a, b)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`digraph "ker\"nel" {`,
		`label="0: acc \"x\" \\ y\nadd"`,
		`label="1: line1\nline2\nstore"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Every label attribute must close on the same line it opens: an
	// unescaped quote or newline would split it across lines.
	for _, line := range strings.Split(out, "\n") {
		if n := strings.Count(line, `"`) - strings.Count(line, `\"`); n%2 != 0 {
			t.Fatalf("unbalanced quotes in line %q", line)
		}
	}
}

// Property: for random DAGs, ASAP <= ALAP everywhere and the topo order
// is consistent with every forward edge.
func TestQuickScheduleBounds(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 2
		rng := rand.New(rand.NewSource(seed))
		g := New("q")
		for i := 0; i < n; i++ {
			g.AddNode(OpAdd, "")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(5) == 0 {
					g.AddEdge(i, j)
				}
			}
		}
		if err := g.Freeze(); err != nil {
			return false
		}
		asap, alap := g.ASAP(), g.ALAP()
		for i := range asap {
			if asap[i] > alap[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: RecMII never drops when a cycle's latency grows.
func TestQuickRecMIIMonotone(t *testing.T) {
	f := func(sz uint8, d uint8) bool {
		n := int(sz%12) + 2
		dist := int(d%3) + 1
		mk := func(length int) int {
			g := New("q")
			for i := 0; i < length; i++ {
				g.AddNode(OpAdd, "")
			}
			for i := 0; i+1 < length; i++ {
				g.AddEdge(i, i+1)
			}
			g.AddEdgeDist(length-1, 0, dist)
			g.MustFreeze()
			return g.RecMII()
		}
		return mk(n) <= mk(n+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

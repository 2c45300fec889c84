package dfg

import (
	"encoding/json"
	"testing"
)

func fpTestGraph() *Graph {
	g := New("fp-test")
	a := g.AddNode(OpLoad, "a")
	b := g.AddNode(OpLoad, "b")
	m := g.AddNode(OpMul, "")
	acc := g.AddNode(OpAdd, "acc")
	st := g.AddNode(OpStore, "out")
	g.AddEdge(a, m)
	g.AddEdge(b, m)
	g.AddEdge(m, acc)
	g.AddEdgeDist(acc, acc, 1)
	g.AddEdge(acc, st)
	return g
}

// The satellite requirement: JSON encode → decode must yield an
// identical fingerprint.
func TestFingerprintJSONRoundTrip(t *testing.T) {
	g := fpTestGraph()
	want := g.Fingerprint()

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := back.Fingerprint(); got != want {
		t.Fatalf("fingerprint changed across JSON round trip:\n before %s\n after  %s", want, got)
	}
}

// Edge insertion order and cosmetic names must not change the
// fingerprint; structure must.
func TestFingerprintCanonical(t *testing.T) {
	g := fpTestGraph()
	want := g.Fingerprint()

	// Same structure, different edge insertion order and names.
	p := New("other-name")
	p.AddNode(OpLoad, "")
	p.AddNode(OpLoad, "renamed")
	p.AddNode(OpMul, "x")
	p.AddNode(OpAdd, "")
	p.AddNode(OpStore, "")
	p.AddEdge(3, 4)
	p.AddEdgeDist(3, 3, 1)
	p.AddEdge(2, 3)
	p.AddEdge(1, 2)
	p.AddEdge(0, 2)
	if got := p.Fingerprint(); got != want {
		t.Fatalf("fingerprint depends on edge order or names:\n %s\n %s", want, got)
	}

	// Changing an op changes the fingerprint.
	q := fpTestGraph()
	q.Nodes[2].Op = OpSub
	if q.Fingerprint() == want {
		t.Fatal("fingerprint ignored an operation change")
	}

	// Changing a recurrence distance changes the fingerprint.
	r := fpTestGraph()
	for i, e := range r.Edges {
		if e.Dist == 1 {
			r.Edges[i].Dist = 2
		}
	}
	if r.Fingerprint() == want {
		t.Fatal("fingerprint ignored a distance change")
	}

	// Dropping an edge changes the fingerprint.
	s := fpTestGraph()
	s.Edges = s.Edges[:len(s.Edges)-1]
	if s.Fingerprint() == want {
		t.Fatal("fingerprint ignored a removed edge")
	}
}

// Freezing (which builds analysis caches) must not perturb the
// fingerprint, so cached and freshly-decoded graphs address the same
// cache entry.
func TestFingerprintFrozenInvariant(t *testing.T) {
	g := fpTestGraph()
	want := g.Fingerprint()
	g.MustFreeze()
	if got := g.Fingerprint(); got != want {
		t.Fatalf("Freeze changed the fingerprint: %s -> %s", want, got)
	}
}

// Freeze memoises the fingerprint: the frozen graph returns the value
// the unfrozen one computed, and returns it without hashing again (the
// service reads it per request, per retry-ladder step and per batch
// item off graphs it shares between jobs).
func TestFingerprintMemoisedByFreeze(t *testing.T) {
	g := fpTestGraph()
	want := g.Fingerprint()
	if g.fp != "" {
		t.Fatal("an unfrozen graph memoised its fingerprint; it may still be mutated")
	}
	g.AddNode(OpAdd, "late")
	if g.Fingerprint() == want {
		t.Fatal("fingerprint did not follow a mutation before Freeze")
	}
	g = fpTestGraph()
	g.MustFreeze()
	if got := g.Fingerprint(); got != want {
		t.Fatalf("frozen fingerprint %s, unfrozen %s", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.Fingerprint() }); n != 0 {
		t.Fatalf("Fingerprint on a frozen graph allocates %.0f times; it should return the memo", n)
	}
}

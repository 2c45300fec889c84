package spr

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"panorama/internal/arch"
	"panorama/internal/dfg"
)

func TestPQueueOrdersAscending(t *testing.T) {
	var q pqueue
	rng := rand.New(rand.NewSource(1))
	var want []float64
	for i := 0; i < 200; i++ {
		c := rng.Float64() * 100
		want = append(want, c)
		q.push(c, int32(i))
	}
	sort.Float64s(want)
	for i := 0; !q.empty(); i++ {
		c, _ := q.pop()
		if c != want[i] {
			t.Fatalf("pop %d returned %v, want %v", i, c, want[i])
		}
	}
}

func TestPQueueReset(t *testing.T) {
	var q pqueue
	q.push(1, 0)
	q.reset()
	if !q.empty() {
		t.Fatal("reset did not empty the queue")
	}
}

// Property: heap pops match a sorted slice for random sequences.
func TestQuickPQueue(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		var q pqueue
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
			q.push(vals[i], int32(i))
		}
		sort.Float64s(vals)
		for i := 0; i < n; i++ {
			c, _ := q.pop()
			if c != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstRevisit(t *testing.T) {
	st := &state{visitStamp: make([]int32, 8)}
	if st.firstRevisit([]int32{1, 2, 3}) != -1 {
		t.Fatal("false positive")
	}
	if got := st.firstRevisit([]int32{1, 2, 1, 3}); got != 2 {
		t.Fatalf("firstRevisit = %d, want 2", got)
	}
	if st.firstRevisit(nil) != -1 {
		t.Fatal("nil slice")
	}
	// Stamps must not leak between calls: nodes seen in a previous
	// route are fresh in the next.
	if st.firstRevisit([]int32{1, 2, 3}) != -1 {
		t.Fatal("stamp leaked across calls")
	}
}

func TestWalkElapsedMatchesValidate(t *testing.T) {
	// Build a tiny mapping and check walkElapsed agrees with the MRRG
	// Adv flags along every route.
	g := dfg.New("t")
	a0 := g.AddNode(dfg.OpLoad, "")
	a1 := g.AddNode(dfg.OpAdd, "")
	a2 := g.AddNode(dfg.OpStore, "")
	g.AddEdge(a0, a1)
	g.AddEdge(a1, a2)
	g.MustFreeze()
	ar := arch.Preset4x4()
	res, err := Map(g, ar, Options{Seed: 1})
	if err != nil || !res.Success {
		t.Fatalf("map failed: %v", err)
	}
	st, err := newState(g, ar, res.II, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range res.Mapping.Routes {
		last := -1
		st.walkElapsed(route, func(n int32, elapsed int) {
			if elapsed < last {
				t.Fatalf("elapsed decreased along route")
			}
			last = elapsed
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := &Options{}
	o.defaults(90)
	if o.RouterIters != 12 || o.SAInitTemp != 20 || o.SAMinTemp != 0.5 ||
		o.SACooling != 0.85 || o.SAMovesPerTemp != 30 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	o2 := &Options{SAMovesPerTemp: 5, SACooling: 1.5}
	o2.defaults(9)
	if o2.SAMovesPerTemp != 5 {
		t.Fatal("explicit moves overridden")
	}
	if o2.SACooling != 0.85 {
		t.Fatal("invalid cooling not defaulted")
	}
}

func TestPlacementOrderTopological(t *testing.T) {
	specG := dfg.New("t")
	n := 30
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		specG.AddNode(dfg.OpAdd, "")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(6) == 0 {
				specG.AddEdge(i, j)
			}
		}
	}
	specG.MustFreeze()
	st, err := newState(specG, arch.Preset8x8(), 2, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, n)
	for p, v := range st.placementOrder() {
		pos[v] = p
	}
	for _, e := range specG.Edges {
		if e.Dist == 0 && pos[e.From] >= pos[e.To] {
			t.Fatalf("placement order violates edge %d->%d", e.From, e.To)
		}
	}
}

func TestProducesValue(t *testing.T) {
	g := dfg.New("t")
	ld := g.AddNode(dfg.OpLoad, "")
	st0 := g.AddNode(dfg.OpStore, "")
	g.AddEdge(ld, st0)
	g.MustFreeze()
	s, err := newState(g, arch.Preset4x4(), 2, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.producesValue(ld) {
		t.Fatal("load with a consumer must produce a value")
	}
	if s.producesValue(st0) {
		t.Fatal("store without consumers must not claim a result register")
	}
}

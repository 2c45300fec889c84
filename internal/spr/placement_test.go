package spr

import (
	"strings"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
)

// TestPlacementRefusesUnreachablePairs prices a producer and its
// consumer on the one-way line 0 → 1 → 2 (the fabric of arch's
// TestMinElapsedIsDirected) at every pair of PEs and every slack, from
// both of placementCost's edge loops: the consumer against a placed
// producer, and the producer against a placed consumer. A consumer
// upstream of its producer is unreachable and must be refused at any
// slack; a downstream one must be accepted from delta == MinElapsed
// on, and refused below it.
func TestPlacementRefusesUnreachablePairs(t *testing.T) {
	line, err := arch.ReadJSON(strings.NewReader(`{"name":"line","rows":1,"cols":3,"clusterRows":1,"clusterCols":1}`))
	if err != nil {
		t.Fatal(err)
	}
	a := line.KeepLinks(func(l arch.Link) bool { return l.To > l.From })
	d := dfg.New("pair")
	src := d.AddNode(dfg.OpAdd, "src")
	dst := d.AddNode(dfg.OpAdd, "dst")
	d.AddEdge(src, dst)
	d.MustFreeze()
	opts := Options{Seed: 1}
	opts.defaults(d.NumNodes())
	st, err := newState(d, a, 2, &opts)
	if err != nil {
		t.Fatal(err)
	}
	lat := d.Nodes[src].Op.Latency()
	for p := 0; p < a.NumPEs(); p++ {
		for q := 0; q < a.NumPEs(); q++ {
			me := a.MinElapsed(p, q)
			for delta := 0; delta <= st.maxDelta; delta++ {
				want := me != arch.Unreachable && delta >= me
				st.place(src, p, 0)
				_, consumer := st.placementCost(dst, q, lat+delta)
				st.unplace(src)
				st.place(dst, q, lat+delta)
				_, producer := st.placementCost(src, p, 0)
				st.unplace(dst)
				if consumer != want || producer != want {
					t.Errorf("producer on PE %d, consumer on PE %d, delta %d (MinElapsed %d): feasible %v pricing the consumer, %v pricing the producer, want %v",
						p, q, delta, me, consumer, producer, want)
				}
			}
		}
	}
}

package sim

import (
	"fmt"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
	"panorama/internal/verify"
)

// resourceKey identifies one resource instance in one absolute cycle.
type resourceKey struct {
	node  int32 // MRRG node id (modulo-folded resource)
	cycle int   // absolute cycle
}

// occupancyError reports two live values colliding in one resource.
type occupancyError struct {
	desc          string
	cycle         int
	first, second Value
}

func (e *occupancyError) Error() string {
	return fmt.Sprintf("sim: resource conflict on %s at cycle %d: values %d and %d",
		e.desc, e.cycle, e.first, e.second)
}

// Execute replays a routed mapping cycle-accurately for the given
// number of iterations and returns the observed store trace. A
// crossbar-model mapping carries no routes to replay and is refused.
//
// Every DFG value of every iteration is pushed along its compiled
// route: it appears in the producer's result register when the FU
// finishes, advances one resource per Adv edge, and must reach the
// consumer's FU node in exactly the consumer's issue cycle. Along the
// way each (resource, cycle) it occupies is recorded; a second distinct
// value in the same place is a hardware conflict and fails the run.
func Execute(d *dfg.Graph, a *arch.CGRA, m *verify.Mapping, iters int) (*Trace, error) {
	if err := d.Freeze(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("sim: nil mapping")
	}
	if m.Model != verify.ModelRouted {
		return nil, fmt.Errorf("sim: a %s-model mapping has no routes to replay", m.Model)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("sim: non-positive iteration count %d", iters)
	}
	g, err := mrrg.New(a, m.II)
	if err != nil {
		return nil, err
	}

	tr := &Trace{Iterations: iters, Stores: make(map[int][]Value)}
	n := d.NumNodes()
	vals := make([][]Value, iters)

	occupancy := make(map[resourceKey][]Value)
	// delivered[edge][iter] is the operand value that physically arrived
	// at the consumer FU for that edge instance.
	delivered := make(map[[2]int]Value)

	claim := func(node int32, cycle int, v Value) error {
		if g.Kinds[node] == mrrg.KindFU {
			return nil // FU input pins are per-operand, not shared storage
		}
		key := resourceKey{node, cycle}
		vals := occupancy[key]
		for _, prev := range vals {
			if prev == v {
				return nil // fan-out reuse of the same value is free
			}
		}
		if len(vals) >= int(g.Cap[node]) {
			return &occupancyError{desc: g.Describe(int(node)), cycle: cycle, first: vals[0], second: v}
		}
		occupancy[key] = append(vals, v)
		return nil
	}

	// route a value along its compiled path starting at absolute cycle
	// start; returns the arrival cycle at the final node.
	push := func(route []int32, start int, v Value) (int, error) {
		t := start
		if len(route) == 0 {
			return 0, fmt.Errorf("sim: empty route")
		}
		if err := claim(route[0], t, v); err != nil {
			return 0, err
		}
		for i := 0; i+1 < len(route); i++ {
			from, to := route[i], route[i+1]
			hop, ok := g.FindEdge(from, to)
			if !ok {
				return 0, fmt.Errorf("sim: route uses missing MRRG edge %s -> %s",
					g.Describe(int(from)), g.Describe(int(to)))
			}
			if hop.Adv {
				t++
			}
			if err := claim(to, t, v); err != nil {
				return 0, err
			}
		}
		return t, nil
	}

	order := d.TopoOrder()
	for i := 0; i < iters; i++ {
		vals[i] = make([]Value, n)
		for _, v := range order {
			// Gather operands from what the fabric delivered.
			operands := make([]Value, 0, d.InDeg(v))
			for _, ei := range d.InEdges(v) {
				e := d.Edges[ei]
				if i-e.Dist < 0 {
					operands = append(operands, 0)
					continue
				}
				val, ok := delivered[[2]int{ei, i}]
				if !ok {
					return nil, fmt.Errorf("sim: edge %d->%d iteration %d: no value arrived", e.From, e.To, i)
				}
				operands = append(operands, val)
			}
			issue := m.PlaceT[v] + i*m.II
			out := eval(d.Nodes[v].Op, v, i, operands)
			vals[i][v] = out
			if d.Nodes[v].Op == dfg.OpStore {
				tr.Stores[v] = append(tr.Stores[v], out)
			}
			// Ship the result to every consumer along its route.
			avail := issue + d.Nodes[v].Op.Latency()
			for _, ei := range d.OutEdges(v) {
				e := d.Edges[ei]
				targetIter := i + e.Dist
				if targetIter >= iters {
					continue
				}
				route := m.Routes[ei]
				arrive, err := push(route, avail, out)
				if err != nil {
					return nil, err
				}
				wantArrive := m.PlaceT[e.To] + targetIter*m.II
				if arrive != wantArrive {
					return nil, fmt.Errorf("sim: edge %d->%d iteration %d arrives at cycle %d, consumer issues at %d",
						e.From, e.To, i, arrive, wantArrive)
				}
				delivered[[2]int{ei, targetIter}] = out
			}
		}
	}
	return tr, nil
}

// Verify maps nothing itself: it runs both engines for iters iterations
// and returns the first trace discrepancy, route timing violation, or
// resource conflict.
func Verify(d *dfg.Graph, a *arch.CGRA, m *verify.Mapping, iters int) error {
	ref, err := Reference(d, iters)
	if err != nil {
		return err
	}
	got, err := Execute(d, a, m, iters)
	if err != nil {
		return err
	}
	return ref.Equal(got)
}

// Package sim executes a mapped loop kernel and checks it against a
// direct interpretation of the DFG — the end-to-end functional proof
// that the compiler's placement, schedule, and routes really implement
// the kernel's dataflow.
//
// Two engines share one operation semantics (eval):
//
//   - Reference walks the DFG directly, iteration by iteration, feeding
//     recurrence edges from earlier iterations.
//   - Execute replays the compiled mapping cycle-accurately: every
//     value physically traverses its route through result registers,
//     wires, register files, and ports, one hop per Adv edge, and must
//     arrive at the consumer FU in the exact cycle the modulo schedule
//     executes it. Resource conflicts (two live values in one resource
//     instance in one cycle) abort the run.
//
// Agreement of the two traces validates the whole compiler stack on
// real data, not just the structural checks of the legality oracle
// (verify.Check). The package takes the oracle's mapping type and links
// no mapper, so it checks SPR*, SAT* and pipeline results alike.
package sim

import (
	"fmt"
	"sort"

	"panorama/internal/dfg"
)

// Value is the machine word the simulated fabric computes on.
type Value = int64

// input returns the deterministic synthetic input stream a load reads:
// a hash of the node id and iteration, so every load sees distinct,
// reproducible data.
func input(node, iter int) Value {
	x := uint64(node)*0x9E3779B97F4A7C15 + uint64(iter)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 27
	return Value(int32(x)) // keep magnitudes moderate
}

// constVal returns the loop-invariant constant a const node carries.
func constVal(node int) Value {
	return Value(int32(uint32(node)*2654435761 + 97))
}

// eval applies one operation to its operand values. Operands arrive in
// ascending DFG edge-index order; both engines use the same convention,
// so operand-order ambiguity cannot cause false mismatches.
func eval(op dfg.Op, node, iter int, operands []Value) Value {
	get := func(i int) Value {
		if i < len(operands) {
			return operands[i]
		}
		return 0
	}
	switch op {
	case dfg.OpConst:
		return constVal(node)
	case dfg.OpLoad:
		return input(node, iter)
	case dfg.OpStore, dfg.OpPhi, dfg.OpNop:
		return get(0)
	case dfg.OpAdd:
		var s Value
		for _, v := range operands {
			s += v
		}
		return s
	case dfg.OpSub:
		if len(operands) == 1 {
			return -get(0)
		}
		return get(0) - get(1)
	case dfg.OpMul:
		s := Value(1)
		for _, v := range operands {
			s *= v
		}
		return s
	case dfg.OpDiv:
		if len(operands) == 1 {
			if d := get(0); d != 0 {
				return 65536 / d // reciprocal in fixed point
			}
			return 0
		}
		if d := get(1); d != 0 {
			return get(0) / d
		}
		return 0
	case dfg.OpShl:
		if len(operands) == 1 {
			return get(0) << 1
		}
		return get(0) << (uint(get(1)) & 15)
	case dfg.OpShr:
		if len(operands) == 1 {
			return get(0) >> 1
		}
		return get(0) >> (uint(get(1)) & 15)
	case dfg.OpAnd:
		s := ^Value(0)
		for _, v := range operands {
			s &= v
		}
		return s
	case dfg.OpOr:
		var s Value
		for _, v := range operands {
			s |= v
		}
		return s
	case dfg.OpXor:
		var s Value
		for _, v := range operands {
			s ^= v
		}
		return s
	case dfg.OpCmp:
		if get(0) > get(1) {
			return 1
		}
		return 0
	case dfg.OpSelect:
		if len(operands) >= 3 {
			if get(0) != 0 {
				return get(1)
			}
			return get(2)
		}
		if get(0) != 0 {
			return get(1)
		}
		return 0
	}
	return 0
}

// Trace holds the observable behaviour of a kernel run: the sequence of
// values every store wrote, per iteration.
type Trace struct {
	Iterations int
	Stores     map[int][]Value // store node id -> value per iteration
}

// Equal reports the first difference between two traces, nil if none.
func (tr *Trace) Equal(other *Trace) error {
	if tr.Iterations != other.Iterations {
		return fmt.Errorf("sim: iteration counts differ: %d vs %d", tr.Iterations, other.Iterations)
	}
	if len(tr.Stores) != len(other.Stores) {
		return fmt.Errorf("sim: store sets differ: %d vs %d", len(tr.Stores), len(other.Stores))
	}
	ids := make([]int, 0, len(tr.Stores))
	for id := range tr.Stores {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a, ok := other.Stores[id]
		if !ok {
			return fmt.Errorf("sim: store %d missing from other trace", id)
		}
		b := tr.Stores[id]
		for i := range b {
			if i >= len(a) || a[i] != b[i] {
				return fmt.Errorf("sim: store %d iteration %d: %d vs %d", id, i, b[i], a[i])
			}
		}
	}
	return nil
}

// Reference interprets the DFG directly for the given iteration count.
// Recurrence operands from before iteration 0 read as zero.
func Reference(d *dfg.Graph, iters int) (*Trace, error) {
	if err := d.Freeze(); err != nil {
		return nil, err
	}
	if iters <= 0 {
		return nil, fmt.Errorf("sim: non-positive iteration count %d", iters)
	}
	tr := &Trace{Iterations: iters, Stores: make(map[int][]Value)}
	n := d.NumNodes()
	vals := make([][]Value, iters) // [iter][node]

	for i := 0; i < iters; i++ {
		vals[i] = make([]Value, n)
		for _, v := range d.TopoOrder() {
			operands := gatherOperands(d, d.InEdges(v), vals, i)
			vals[i][v] = eval(d.Nodes[v].Op, v, i, operands)
			if d.Nodes[v].Op == dfg.OpStore {
				tr.Stores[v] = append(tr.Stores[v], vals[i][v])
			}
		}
	}
	return tr, nil
}

// gatherOperands collects the operand values of a node for iteration i
// in ascending edge-index order; cross-iteration operands before the
// first iteration read as zero.
func gatherOperands(d *dfg.Graph, edges []int, vals [][]Value, i int) []Value {
	operands := make([]Value, 0, len(edges))
	for _, ei := range edges {
		e := d.Edges[ei]
		src := i - e.Dist
		if src < 0 {
			operands = append(operands, 0)
		} else {
			operands = append(operands, vals[src][e.From])
		}
	}
	return operands
}

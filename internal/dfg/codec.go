package dfg

import (
	"encoding/binary"
	"fmt"

	"panorama/internal/wire"
)

// Binary codec for graphs: a compact varint wire format used by the
// service's persistent result cache and the fuzz corpora. The layout
// (version 1) is
//
//	magic "PDFG", version byte
//	name:  uvarint length, raw bytes
//	nodes: uvarint count, then one zigzag varint per node holding the
//	       opcode delta against the previous node's opcode (node IDs
//	       are dense, so positions encode them)
//	names: uvarint count of named nodes, then per named node a uvarint
//	       index delta against the previous named index, a uvarint
//	       length and raw bytes
//	edges: uvarint count, then per edge (in stored order) zigzag
//	       varint of From - previous From, zigzag varint of To - From,
//	       uvarint Dist
//
// Deltas exploit the shapes dfgen and the kernel library produce:
// runs of equal opcodes and near-diagonal edges both collapse to
// single bytes. Decoding validates with the same Validate contract as
// UnmarshalJSON, so a decoded graph is always structurally legal, and
// Fingerprint is a pure function of the decoded structure — the codec
// cannot move cache keys.
const (
	binMagic   = "PDFG"
	binVersion = 1
)

// MarshalBinary encodes the graph in the versioned varint wire format.
func (g *Graph) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 8+len(g.Name)+2*len(g.Nodes)+4*len(g.Edges))
	buf = append(buf, binMagic...)
	buf = append(buf, binVersion)
	buf = wire.AppendString(buf, g.Name)

	buf = binary.AppendUvarint(buf, uint64(len(g.Nodes)))
	prevOp := int64(0)
	named := 0
	for _, nd := range g.Nodes {
		buf = binary.AppendVarint(buf, int64(nd.Op)-prevOp)
		prevOp = int64(nd.Op)
		if nd.Name != "" {
			named++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(named))
	prevIdx := 0
	for i, nd := range g.Nodes {
		if nd.Name == "" {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i-prevIdx))
		prevIdx = i
		buf = wire.AppendString(buf, nd.Name)
	}

	buf = binary.AppendUvarint(buf, uint64(len(g.Edges)))
	prevFrom := int64(0)
	for _, e := range g.Edges {
		buf = binary.AppendVarint(buf, int64(e.From)-prevFrom)
		prevFrom = int64(e.From)
		buf = binary.AppendVarint(buf, int64(e.To)-int64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.Dist))
	}
	return buf, nil
}

// UnmarshalBinary decodes a graph previously written by MarshalBinary
// and validates it. Arbitrary (including adversarial) input is safe:
// all counts are bounded by the payload size before allocation and the
// decoded structure passes the full Validate contract.
func (g *Graph) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("dfg: binary codec", data)
	r.Header(binMagic, binVersion)
	name := r.String()

	numNodes := r.Count("node", 1)
	var nodes []Node
	if numNodes > 0 {
		nodes = make([]Node, 0, numNodes)
	}
	prevOp := int64(0)
	for i := 0; i < numNodes; i++ {
		op := prevOp + r.Varint() // a failed read repeats prevOp; Done reports it
		if op < 0 || op > int64(OpPhi) {
			return fmt.Errorf("dfg: binary codec: node %d opcode %d out of range", i, op)
		}
		prevOp = op
		nodes = append(nodes, Node{ID: i, Op: Op(op)})
	}

	numNamed := r.Count("named node", 2)
	prevIdx := uint64(0)
	for i := 0; i < numNamed; i++ {
		idx := prevIdx + r.Uvarint()
		nm := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		if idx >= uint64(numNodes) || (i > 0 && idx == prevIdx) {
			return fmt.Errorf("dfg: binary codec: named-node index %d out of order (n=%d)", idx, numNodes)
		}
		prevIdx = idx
		nodes[idx].Name = nm
	}

	numEdges := r.Count("edge", 3)
	var edges []Edge
	if numEdges > 0 {
		edges = make([]Edge, 0, numEdges)
	}
	prevFrom := int64(0)
	for i := 0; i < numEdges; i++ {
		from := prevFrom + r.Varint()
		to := from + r.Varint()
		dist := r.Uvarint()
		const maxField = 1 << 31 // Validate range-checks against n, but int64->int must not wrap
		if from < -maxField || from > maxField || to < -maxField || to > maxField || dist > maxField {
			return fmt.Errorf("dfg: binary codec: edge %d fields out of range", i)
		}
		prevFrom = from
		edges = append(edges, Edge{From: int(from), To: int(to), Dist: int(dist)})
	}
	if err := r.Done(); err != nil {
		return err
	}
	*g = Graph{Name: name, Nodes: nodes, Edges: edges}
	return g.Validate()
}

package dfg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Fingerprint returns the canonical content address of the graph
// structure: a hex SHA-256 over the operation sequence (in node-id
// order) and the edge set sorted by (From, To, Dist).
//
// The encoding is deliberately independent of everything that does not
// affect mapping: the graph and node names, the order edges were
// inserted, and — should the representation ever grow map-backed
// fields — any map iteration order. Two graphs with the same
// fingerprint produce the same mapping result for the same
// architecture, configuration and seed, which is what makes the
// fingerprint usable as a cache key (see internal/service).
//
// The fingerprint survives the JSON codec: encode → decode yields an
// identical fingerprint (nodes and edges round-trip positionally, and
// edge order does not matter anyway).
//
// Freeze computes it once and a frozen graph returns that value, so
// fingerprinting a shared graph per request, per retry-ladder step or
// per batch item costs nothing; an unfrozen graph is hashed on the call.
func (g *Graph) Fingerprint() string {
	if g.frozen {
		return g.fp
	}
	return g.fingerprint()
}

func (g *Graph) fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}

	// Domain separator + node count guard against ambiguous
	// concatenation of the two sections.
	h.Write([]byte("panorama/dfg/v1\x00"))
	writeInt(len(g.Nodes))
	for _, nd := range g.Nodes {
		writeInt(int(nd.Op))
	}

	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Dist < edges[j].Dist
	})
	writeInt(len(edges))
	for _, e := range edges {
		writeInt(e.From)
		writeInt(e.To)
		writeInt(e.Dist)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

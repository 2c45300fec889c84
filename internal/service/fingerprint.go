package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
)

// CodeVersion is folded into every fingerprint so cached results are
// never served across algorithm changes. Bump it whenever a change to
// the mapper stack can alter results for identical inputs;
// internal/bench/testdata/codeversion.ledger ties each value to the
// identity golden it was cut at.
const CodeVersion = 6

// Key computes the canonical content address of one mapping
// computation: the structural DFG fingerprint, the architecture
// parameters that determine the fabric, the mapper identity and seed,
// the Total budget, and CodeVersion. Identical keys denote identical
// results, which is what lets the cache serve them and the coalescer
// share them.
//
// Total is hashed although the clock only aborts: a job with a short
// deadline may fail where a longer one succeeds, and failures are never
// cached, so the keys differ only in what they coalesce with.
// Deliberately excluded: graph/arch names (cosmetic), worker counts
// (results are bit-identical at any parallelism), and the caller's
// context deadline.
func Key(g *dfg.Graph, a *arch.CGRA, mapper string, seed int64, budgets core.Budgets) string {
	h := sha256.New()
	fmt.Fprintf(h, "panorama/service/v%d\x00", CodeVersion)
	fmt.Fprintf(h, "dfg:%s\x00", g.Fingerprint())
	writeInts(h,
		a.Rows, a.Cols, a.ClusterRows, a.ClusterCols,
		a.NumRegs, a.RFReadPorts, a.RFWritePorts, a.InterClusterLinks)
	fmt.Fprintf(h, "mapper:%s\x00", mapper)
	writeInts(h, int(seed), int(budgets.Total))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
}

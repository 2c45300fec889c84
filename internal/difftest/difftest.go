package difftest

import (
	"fmt"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/dfgen"
	"panorama/internal/sim"
	"panorama/internal/verify"
)

// SimIters is how many loop iterations the simulator replays when
// cross-checking a mapping; enough to cover every recurrence distance
// the generator draws plus one wrap.
const SimIters = 5

// Verify checks a successful mapping from any mapper with the legality
// oracle and, when it is routed, replays it cycle-accurately against
// the reference interpretation of the DFG. The crossbar model has no
// explicit routes to replay; the oracle's independent bandwidth
// re-derivation is its whole check.
func Verify(d *dfg.Graph, a *arch.CGRA, m *verify.Mapping, allowed [][]int) error {
	if err := verify.Check(d, a, m, allowed); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if m.Model != verify.ModelRouted {
		return nil
	}
	if err := sim.Verify(d, a, m, SimIters); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// CorpusParams derives the generation parameters for differential
// corpus entry i: node counts from 4 to 18 with rotating recurrence
// density, memory pressure, and fan-out, so the corpus spans
// compute-bound, memory-bound, and recurrence-bound shapes.
func CorpusParams(i int) (seed int64, p dfgen.Params) {
	p = dfgen.Params{
		Nodes:      4 + i%15,
		ExtraEdges: 1 + i%5,
		MaxFanout:  2 + i%4,
		RecDensity: float64(i%4) * 0.15,
		MemRatio:   float64(i%3) * 0.15,
	}
	return int64(1000 + i), p
}

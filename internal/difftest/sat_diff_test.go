package difftest

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfgen"
	"panorama/internal/satmap"
	"panorama/internal/spr"
)

// TestDifferentialSAT maps every corpus graph with the SAT mapper and
// checks each success against the legality oracle and the
// cycle-accurate simulator. A clean failure (budget or size gate) is
// tolerated; an oracle violation never is. Where both SAT* and SPR*
// succeed and SAT*'s II is the higher, its attempt at SPR*'s II
// decides: unsat without a single CEGAR refinement means the encoding
// excluded a placement SPR* routed, which is an encoding bug; running
// out of refinements (route-fail, or unsat once blocking clauses
// joined) or of conflicts (unknown) is budget exhaustion, the
// documented incompleteness of the lazy routing check. That is
// tolerated on at most maxBudgetMisses graphs and for one II only.
func TestDifferentialSAT(t *testing.T) {
	const maxBudgetMisses = 2
	a := arch.Preset4x4()
	var solved, failed, budget int32
	results := make([]int32, shards) // solved per shard
	fails := make([]int32, shards)
	misses := make([]int32, shards) // budget-exhausted overshoots per shard
	for s := 0; s < shards; s++ {
		s := s
		t.Run("", func(t *testing.T) {
			t.Parallel()
			for i := s; i < CorpusSize; i += shards {
				seed, p := CorpusParams(i)
				d := dfgen.Generate(seed, p)
				res, err := satmap.Map(d, a, satmap.Options{Seed: seed})
				if err != nil {
					t.Fatalf("corpus %d: %v", i, err)
				}
				if !res.Success {
					fails[s]++
					continue
				}
				results[s]++
				if res.MII > res.II {
					t.Errorf("corpus %d: MII %d > II %d", i, res.MII, res.II)
				}
				if err := Verify(d, a, res.Mapping, nil); err != nil {
					t.Errorf("corpus %d: %v", i, err)
				}
				sres, err := spr.Map(d, a, spr.Options{Seed: seed})
				if err != nil {
					t.Fatalf("corpus %d: spr: %v", i, err)
				}
				if !sres.Success || res.II <= sres.II {
					continue
				}
				var at satmap.Attempt
				for _, x := range res.Attempts {
					if x.II == sres.II {
						at = x
					}
				}
				switch {
				case res.II > sres.II+1:
					t.Errorf("corpus %d: SAT II %d overshoots SPR* II %d by more than one", i, res.II, sres.II)
				case at.Status == "route-fail" || at.Status == "unknown" || at.Status == "unsat" && at.Refines > 0:
					misses[s]++
					t.Logf("corpus %d: SAT II %d over SPR* II %d: budget exhausted at II %d (%s after %d refinements)",
						i, res.II, sres.II, sres.II, at.Status, at.Refines)
				default:
					t.Errorf("corpus %d: SAT II %d worse than SPR* II %d: attempt at II %d ended %q after %d refinements",
						i, res.II, sres.II, sres.II, at.Status, at.Refines)
				}
			}
		})
	}
	t.Cleanup(func() {
		for s := 0; s < shards; s++ {
			solved += results[s]
			failed += fails[s]
			budget += misses[s]
		}
		t.Logf("SAT solved %d/%d corpus graphs (%d clean failures, %d budget-exhausted II overshoots)", solved, CorpusSize, failed, budget)
		if budget > maxBudgetMisses {
			t.Errorf("SAT overshot SPR*'s II by budget exhaustion on %d graphs, more than %d", budget, maxBudgetMisses)
		}
		if solved < CorpusSize/2 {
			t.Errorf("SAT solved only %d/%d corpus graphs; budget or encoding regression", solved, CorpusSize)
		}
	})
}

package spr_test

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfgen"
	"panorama/internal/difftest"
	"panorama/internal/spr"
)

// FuzzMapSPR decodes arbitrary bytes into a valid DFG (the dfgen codec
// is total), maps it with SPR*, and checks every successful mapping
// against the mapper-independent legality oracle and the
// cycle-accurate simulator. The committed corpus under
// testdata/fuzz/FuzzMapSPR seeds the exploration with graphs spanning
// recurrences, memory pressure, and fan-out; regenerate it with
// `go run ./cmd/gencorpus`.
func FuzzMapSPR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 7, 0, 1, 0})
	a := arch.Preset4x4()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := dfgen.FromBytes(data)
		if !ok {
			return
		}
		// A deliberately tight search budget: fuzzing wants throughput
		// and legality checking, not mapping quality, and a pathological
		// graph must not trip the fuzzer's hang detector. Failures from
		// an exhausted budget are fine — only successes are checked.
		opts := spr.Options{
			Seed:           1,
			MaxII:          a.MII(g) + 2,
			RouterIters:    6,
			SAInitTemp:     4,
			SAMinTemp:      1,
			SACooling:      0.7,
			SAMovesPerTemp: 8,
		}
		res, err := spr.Map(g, a, opts)
		if err != nil {
			t.Fatalf("mapper error on a valid graph: %v", err)
		}
		if !res.Success {
			return // infeasible inputs are expected; only legality is asserted
		}
		if res.MII > res.II {
			t.Fatalf("MII %d > II %d", res.MII, res.II)
		}
		if err := difftest.Verify(g, a, res.Mapping, nil); err != nil {
			t.Fatal(err)
		}
	})
}

package satmap_test

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfgen"
	"panorama/internal/difftest"
	"panorama/internal/satmap"
)

// FuzzSATEncode decodes arbitrary bytes into a valid DFG (the dfgen
// codec is total), runs the SAT mapper under a deliberately tight
// conflict budget, and checks every successful mapping against the
// mapper-independent legality oracle and the cycle-accurate simulator.
// The committed corpus under testdata/fuzz/FuzzSATEncode seeds the
// exploration; regenerate it with `go run ./cmd/gencorpus`.
func FuzzSATEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 7, 0, 1, 0})
	a := arch.Preset4x4()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := dfgen.FromBytes(data)
		if !ok {
			return
		}
		// Throughput over quality: a small conflict budget and II
		// range keep pathological graphs clear of the hang detector.
		// Budget failures are fine — only successes are checked.
		opts := satmap.Options{
			Seed:              1,
			MaxII:             a.MII(g) + 2,
			MaxConflictsPerII: 2000,
			MaxRefines:        4,
		}
		res, err := satmap.Map(g, a, opts)
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

package ultrafast_test

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfgen"
	"panorama/internal/difftest"
	"panorama/internal/ultrafast"
)

// FuzzMapUltraFast decodes arbitrary bytes into a valid DFG and checks
// every successful UltraFast* mapping against the legality oracle,
// whose crossbar-bandwidth accounting is re-derived independently of
// the mapper's. Corpus under testdata/fuzz/FuzzMapUltraFast;
// regenerate with `go run ./cmd/gencorpus`.
func FuzzMapUltraFast(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 7, 0, 1, 0})
	a := arch.Preset4x4()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := dfgen.FromBytes(data)
		if !ok {
			return
		}
		res, err := ultrafast.Map(g, a, ultrafast.Options{})
		if err != nil {
			t.Fatalf("mapper error on a valid graph: %v", err)
		}
		if !res.Success {
			return
		}
		if res.MII > res.II {
			t.Fatalf("MII %d > II %d", res.MII, res.II)
		}
		if err := difftest.Verify(g, a, res.Mapping, nil); err != nil {
			t.Fatal(err)
		}
	})
}

package spr

import (
	"testing"

	"panorama/internal/arch"
	"panorama/internal/kernels"
)

// TestSearchSinkDoesNotAllocate holds the router's hot path to zero
// allocations: on a placed and routed state, ripping up and rerouting
// every sink — searchSink's heap, A* bound and path buffer, the wrap
// retries, the claim — reuses the state's scratch. The claimed routes
// come from keepRoute's chunks, one allocation per routeChunk route
// nodes, which AllocsPerRun's per-run average reads as 0; one
// allocation per search would read as the number of sinks.
func TestSearchSinkDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	spec, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	st := placeForOracle(t, spec.Build(0.25), arch.Preset8x8(), 1)
	if st == nil {
		t.Fatal("fir did not place")
	}
	st.buildSignals()
	st.routeAll()
	sinks := 0
	for _, sig := range st.signals {
		sinks += len(sig.sinks)
	}
	searches, routed := 0, 0
	if n := testing.AllocsPerRun(20, func() {
		for _, sig := range st.signals {
			for i := range sig.sinks {
				searches++
				st.ripupSink(sig, i)
				if st.routeSink(sig, i) {
					routed++
				}
			}
		}
	}); n != 0 {
		t.Fatalf("rerouting all %d sinks allocates %v times per round", sinks, n)
	}
	if routed == 0 {
		t.Fatal("no sink routed")
	}
	t.Logf("%d sinks; %d of %d searches routed", sinks, routed, searches)
}

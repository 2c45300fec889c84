package difftest

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/config"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/dfgen"
	"panorama/internal/kernels"
	"panorama/internal/service"
	"panorama/internal/sim"
	"panorama/internal/spr"
	"panorama/internal/ultrafast"
	"panorama/internal/verify"
	"panorama/internal/viz"
)

// CorpusSize is how many seeded random DFGs each mapper is checked
// against. Sharded into parallel subtests so the -race run stays fast.
const (
	CorpusSize = 200
	shards     = 8
)

// TestDifferentialSPR maps every corpus graph with SPR* and checks the
// result against the legality oracle and the cycle-accurate simulator.
// The mapper self-validates through the same oracle, so the extra
// information here is the independent sim replay.
func TestDifferentialSPR(t *testing.T) {
	a := arch.Preset4x4()
	for s := 0; s < shards; s++ {
		s := s
		t.Run("", func(t *testing.T) {
			t.Parallel()
			for i := s; i < CorpusSize; i += shards {
				seed, p := CorpusParams(i)
				d := dfgen.Generate(seed, p)
				res, err := spr.Map(d, a, spr.Options{Seed: seed})
				if err != nil {
					t.Fatalf("corpus %d: %v", i, err)
				}
				if !res.Success {
					// Every corpus entry maps on the 4x4 today; a new failure
					// is a mapper regression, not corpus noise.
					t.Errorf("corpus %d: SPR* failed to map (MII=%d)", i, res.MII)
					continue
				}
				if res.MII > res.II {
					t.Errorf("corpus %d: MII %d > II %d", i, res.MII, res.II)
				}
				if err := Verify(d, a, res.Mapping, nil); err != nil {
					t.Errorf("corpus %d: %v", i, err)
				}
			}
		})
	}
}

// TestDifferentialUltraFast maps every corpus graph with UltraFast*
// and checks the result against the oracle's independent bandwidth
// re-derivation.
func TestDifferentialUltraFast(t *testing.T) {
	a := arch.Preset4x4()
	for i := 0; i < CorpusSize; i++ {
		seed, p := CorpusParams(i)
		d := dfgen.Generate(seed, p)
		res, err := ultrafast.Map(d, a, ultrafast.Options{})
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		if !res.Success {
			t.Errorf("corpus %d: UltraFast* failed to map (MII=%d)", i, res.MII)
			continue
		}
		if res.MII > res.II {
			t.Errorf("corpus %d: MII %d > II %d", i, res.MII, res.II)
		}
		if err := Verify(d, a, res.Mapping, nil); err != nil {
			t.Errorf("corpus %d: %v", i, err)
		}
	}
}

// TestDifferentialPipeline runs the full Panorama pipeline (spectral
// clustering, cluster mapping, guided lowering with relaxation and
// fallback) over corpus graphs and oracle-checks the mapping the
// pipeline actually reports, including guidance containment when the
// result is labelled guided.
func TestDifferentialPipeline(t *testing.T) {
	a := arch.Preset8x8()
	lowers := []core.Lower{core.SPRLower{}, core.UltraFastLower{}}
	for li, lower := range lowers {
		for i := 0; i < 24; i++ {
			idx := i*7 + li
			seed, p := CorpusParams(idx)
			d := dfgen.Generate(seed, p)
			res, err := core.MapPanorama(d, a, lower, core.Config{Seed: seed})
			if err != nil {
				t.Errorf("%s corpus %d: pipeline error: %v", lower.Name(), idx, err)
				continue
			}
			if !res.Lower.Success {
				continue
			}
			if res.Lower.Mapping == nil {
				t.Errorf("%s corpus %d: success without a mapping", lower.Name(), idx)
				continue
			}
			// Containment is only promised for fully guided results; a
			// relaxed or fallback run legitimately leaves the restriction.
			var allowed [][]int
			if res.GuidanceLabel() == "guided" {
				allowed = core.AllowedClusters(d, a, res.Partition, res.ClusterMap)
			}
			if err := Verify(d, a, res.Lower.Mapping, allowed); err != nil {
				t.Errorf("%s corpus %d (%s): %v", lower.Name(), idx, res.GuidanceLabel(), err)
			}
		}
	}
}

// TestDownstreamTakesAnyMapper maps a quick kernel through core with
// every kind of lowerer and hands res.Lower.Mapping, unconverted, to
// everything downstream of a mapping. A routed result — whichever
// mapper produced it — must replay in the simulator and lower to a
// configuration program; a crossbar result (UltraFast*) must be
// refused with an error naming the model, not crash on its missing
// routes.
func TestDownstreamTakesAnyMapper(t *testing.T) {
	g, a := kernels.FIR(0.05), arch.Preset8x8()
	for _, name := range []string{"spr", "pan-spr", "sat", "ultrafast"} {
		bare, pan := strings.CutPrefix(name, "pan-")
		lower, err := core.NewLowerByName(bare, 1)
		if err != nil {
			t.Fatal(err)
		}
		var res *core.Result
		if pan {
			res, err = core.MapPanorama(g, a, lower, core.Config{Seed: 1, RelaxOnFailure: true})
		} else {
			res, err = core.MapBaseline(g, a, lower)
		}
		if err != nil || !res.Lower.Success {
			t.Errorf("%s: no mapping (err %v)", name, err)
			continue
		}
		m := res.Lower.Mapping
		if (m.Model == verify.ModelCrossbar) != (name == "ultrafast") {
			t.Errorf("%s: unexpected %s-model mapping", name, m.Model)
		}
		_, simErr := sim.Execute(g, a, m, SimIters)
		_, cfgErr := config.Generate(g, a, m)
		_, vizErr := viz.TimeExtended(g, a, m)
		_, repErr := spr.Analyze(g, a, m)
		for fn, err := range map[string]error{"sim.Execute": simErr, "sim.Verify": sim.Verify(g, a, m, SimIters),
			"config.Generate": cfgErr, "viz.TimeExtended": vizErr, "spr.Analyze": repErr} {
			switch {
			case m.Model == verify.ModelRouted && err != nil:
				t.Errorf("%s: %s rejected a routed mapping: %v", name, fn, err)
			case m.Model == verify.ModelCrossbar && (err == nil || !strings.Contains(err.Error(), "crossbar")):
				t.Errorf("%s: %s must refuse the crossbar model by name, got %v", name, fn, err)
			}
		}
	}
}

// TestMetamorphicFingerprint checks the graph identity the service
// cache keys on: renaming nodes and reordering edge insertion must not
// change Fingerprint or the cache key, while any structural mutation
// must.
func TestMetamorphicFingerprint(t *testing.T) {
	a := arch.Preset8x8()
	for i := 0; i < 40; i++ {
		seed, p := CorpusParams(i * 5)
		d := dfgen.Generate(seed, p)

		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(d.NumEdges())
		re := dfg.New("renamed-" + d.Name)
		for _, nd := range d.Nodes {
			re.AddNode(nd.Op, "other-name")
		}
		for _, ei := range perm {
			e := d.Edges[ei]
			re.AddEdgeDist(e.From, e.To, e.Dist)
		}
		re.MustFreeze()

		if d.Fingerprint() != re.Fingerprint() {
			t.Fatalf("corpus %d: fingerprint depends on names or edge insertion order", i*5)
		}
		k1 := service.Key(d, a, "spr", seed, core.Budgets{})
		k2 := service.Key(re, a, "spr", seed, core.Budgets{})
		if k1 != k2 {
			t.Fatalf("corpus %d: cache key depends on names or edge insertion order", i*5)
		}

		mut := dfg.New(d.Name)
		for v, nd := range d.Nodes {
			op := nd.Op
			if v == d.NumNodes()-1 {
				if op == dfg.OpAdd {
					op = dfg.OpSub
				} else {
					op = dfg.OpAdd
				}
			}
			mut.AddNode(op, nd.Name)
		}
		for _, e := range d.Edges {
			mut.AddEdgeDist(e.From, e.To, e.Dist)
		}
		mut.MustFreeze()
		if d.Fingerprint() == mut.Fingerprint() {
			t.Fatalf("corpus %d: changing an opcode did not change the fingerprint", i*5)
		}
	}
}

// TestMetamorphicDeterminism maps every corpus graph with every
// registered mapper twice with the same seed, once at GOMAXPROCS 1 and
// once at 2, and demands identical results: a mapping is a function of
// (graph, fabric, seed) alone, whatever the scheduler does — the
// property the service's content-addressed cache is built on.
func TestMetamorphicDeterminism(t *testing.T) {
	a := arch.Preset4x4()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range core.LowerNames() {
		for i := 0; i < 20; i++ {
			seed, p := CorpusParams(i * 11)
			d := dfgen.Generate(seed, p)
			var runs [2]core.LowerResult
			for j, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				lw, err := core.NewLowerByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				if runs[j], err = lw.Map(context.Background(), d, a, nil); err != nil {
					t.Fatalf("%s corpus %d at GOMAXPROCS %d: %v", name, i*11, procs, err)
				}
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("%s corpus %d: GOMAXPROCS 1 mapped at II %d, GOMAXPROCS 2 at II %d, or to another mapping",
					name, i*11, runs[0].II, runs[1].II)
			}
		}
	}
}

// TestMetamorphicTightening pins the relationship between an unguided
// UltraFast* run and a re-run restricted to the clusters the unguided
// solution already used. The hypothesis "tightening AllowedClusters
// never lowers II" is refuted by the greedy mapper — on this corpus
// guidance lowers II in ~13% of entries, which is the paper's whole
// premise (restriction spreads the greedy packing and relieves the
// crossbars). What does hold, and is asserted here over the fixed
// corpus: a restriction derived from a known-feasible placement always
// still maps, and never at a worse II than the run it came from.
func TestMetamorphicTightening(t *testing.T) {
	a := arch.Preset8x8()
	improved := 0
	for i := 0; i < CorpusSize; i++ {
		seed, p := CorpusParams(i)
		d := dfgen.Generate(seed, p)
		un, err := ultrafast.Map(d, a, ultrafast.Options{})
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		if !un.Success {
			continue
		}
		allowed := make([][]int, d.NumNodes())
		for v, pe := range un.Mapping.PlacePE {
			allowed[v] = []int{a.ClusterOf(pe)}
		}
		g, err := ultrafast.Map(d, a, ultrafast.Options{AllowedClusters: allowed})
		if err != nil {
			t.Fatalf("corpus %d guided: %v", i, err)
		}
		if !g.Success {
			t.Errorf("corpus %d: restriction to the unguided solution's own clusters failed to map", i)
			continue
		}
		if g.II > un.II {
			t.Errorf("corpus %d: self-derived tightening raised II %d -> %d", i, un.II, g.II)
		}
		if g.II < un.II {
			improved++
		}
		if err := Verify(d, a, g.Mapping, allowed); err != nil {
			t.Errorf("corpus %d guided: %v", i, err)
		}
	}
	if improved == 0 {
		t.Error("guidance never improved II on the corpus; the distribution premise has regressed")
	}
}

package core

import (
	"context"
	"fmt"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/spr"
	"panorama/internal/ultrafast"
	"panorama/internal/verify"
)

func firKernel(t *testing.T, scale float64) *dfg.Graph {
	t.Helper()
	spec, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Build(scale)
}

func TestMapPanoramaSPR(t *testing.T) {
	d := firKernel(t, 0.25)
	a := arch.Preset8x8()
	res, err := MapPanorama(d, a, SPRLower{Options: spr.Options{Seed: 1}}, Config{Seed: 1, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lower.Success {
		t.Fatal("Pan-SPR* failed to map fir")
	}
	if res.Partition == nil || res.CDG == nil || res.ClusterMap == nil {
		t.Fatal("missing pipeline artefacts")
	}
	if res.Partition.K < a.ClusterRows {
		t.Fatalf("chosen partition has %d clusters, below R=%d", res.Partition.K, a.ClusterRows)
	}
	if res.Lower.QoM <= 0 || res.Lower.QoM > 1 {
		t.Fatalf("QoM = %v", res.Lower.QoM)
	}
	if res.TotalTime() <= 0 {
		t.Fatal("timings not recorded")
	}
}

func TestMapPanoramaUltraFast(t *testing.T) {
	d := firKernel(t, 0.25)
	a := arch.Preset8x8()
	res, err := MapPanorama(d, a, UltraFastLower{}, Config{Seed: 2, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lower.Success {
		t.Fatal("Pan-UltraFast failed to map fir")
	}
}

func TestAllowedClustersCoverAllNodes(t *testing.T) {
	d := firKernel(t, 0.25)
	a := arch.Preset8x8()
	res, err := MapPanorama(d, a, UltraFastLower{}, Config{Seed: 3, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	allowed := AllowedClusters(d, a, res.Partition, res.ClusterMap)
	if len(allowed) != d.NumNodes() {
		t.Fatalf("allowed has %d entries", len(allowed))
	}
	for v, cids := range allowed {
		if len(cids) == 0 {
			t.Fatalf("node %d has no allowed clusters", v)
		}
		for _, cid := range cids {
			if cid < 0 || cid >= a.NumClusters() {
				t.Fatalf("node %d allowed invalid cluster %d", v, cid)
			}
		}
	}
}

func TestBaselineVsPanorama(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison in -short mode")
	}
	spec, _ := kernels.ByName("conv2d")
	d := spec.Build(0.25)
	a := arch.Preset8x8()

	base, err := MapBaseline(d, a, SPRLower{Options: spr.Options{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	pan, err := MapPanorama(d, a, SPRLower{Options: spr.Options{Seed: 4}}, Config{Seed: 4, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pan.Lower.Success {
		t.Fatal("Pan-SPR* failed")
	}
	// Guard against catastrophic guidance regressions. At this scaled
	// size the baseline often maps near MII, so Panorama can only tie
	// or trail slightly (the paper's gains appear at full scale; see
	// EXPERIMENTS.md); a gap beyond two II steps means the guidance is
	// actively broken.
	if base.Lower.Success && pan.Lower.II > base.Lower.II+2 {
		t.Fatalf("Pan II=%d much worse than baseline II=%d", pan.Lower.II, base.Lower.II)
	}
}

func TestMapBaselineRecordsTime(t *testing.T) {
	d := firKernel(t, 0.2)
	res, err := MapBaseline(d, arch.Preset8x8(), UltraFastLower{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerTime <= 0 {
		t.Fatal("LowerTime not recorded")
	}
	if res.Partition != nil {
		t.Fatal("baseline must not have a partition")
	}
}

func TestLowerNames(t *testing.T) {
	if (SPRLower{}).Name() != "spr" || (UltraFastLower{}).Name() != "ultrafast" {
		t.Fatal("bad lower names")
	}
}

func TestRelaxMemOps(t *testing.T) {
	g := dfg.New("t")
	ld := g.AddNode(dfg.OpLoad, "")
	ad := g.AddNode(dfg.OpAdd, "")
	g.AddEdge(ld, ad)
	g.MustFreeze()
	allowed := [][]int{{1}, {2}}
	out := relaxMemOps(g, allowed)
	if out[ld] != nil {
		t.Fatal("load not relaxed")
	}
	if out[ad] == nil || out[ad][0] != 2 {
		t.Fatal("non-mem op restriction lost")
	}
	if allowed[0] == nil {
		t.Fatal("input mutated")
	}
}

// scriptedLower is a fake lower-level mapper whose success depends on
// the restriction it receives, for exercising the relax/fallback chain.
type scriptedLower struct {
	succeed func(allowed [][]int) bool
	calls   *int
}

func (s scriptedLower) Name() string { return "scripted" }

func (s scriptedLower) Map(ctx context.Context, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (LowerResult, error) {
	*s.calls++
	ok := s.succeed(allowed)
	return LowerResult{Success: ok, MII: 1, II: 1, QoM: 1}, nil
}

func memOpsUnrestricted(d *dfg.Graph, allowed [][]int) bool {
	if allowed == nil {
		return true
	}
	for v, nd := range d.Nodes {
		if nd.Op.IsMem() && allowed[v] != nil {
			return false
		}
	}
	return true
}

func TestFellBackReportedSeparatelyFromRelaxed(t *testing.T) {
	d := firKernel(t, 0.25)
	a := arch.Preset8x8()

	// Lower succeeds only without any guidance: the pipeline must walk
	// guided -> mem-relaxed -> fallback and label the result a fallback,
	// never a relaxed-but-guided mapping.
	calls := 0
	res, err := MapPanorama(d, a, scriptedLower{
		succeed: func(allowed [][]int) bool { return allowed == nil },
		calls:   &calls,
	}, Config{Seed: 1, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lower.Success {
		t.Fatal("fallback run must succeed")
	}
	if !res.FellBack || res.Relaxed {
		t.Fatalf("FellBack=%v Relaxed=%v, want FellBack only", res.FellBack, res.Relaxed)
	}
	if res.GuidanceLabel() != "fallback" {
		t.Fatalf("label = %q", res.GuidanceLabel())
	}
	if calls != 3 {
		t.Fatalf("lower called %d times, want 3 (guided, relaxed, fallback)", calls)
	}

	// Lower succeeds once the memory ops are freed: still guided, so
	// Relaxed without FellBack.
	calls = 0
	res, err = MapPanorama(d, a, scriptedLower{
		succeed: func(allowed [][]int) bool { return memOpsUnrestricted(d, allowed) },
		calls:   &calls,
	}, Config{Seed: 1, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relaxed || res.FellBack {
		t.Fatalf("FellBack=%v Relaxed=%v, want Relaxed only", res.FellBack, res.Relaxed)
	}
	if res.GuidanceLabel() != "relaxed" {
		t.Fatalf("label = %q", res.GuidanceLabel())
	}

	// Lower succeeds under full guidance: neither flag (unless the
	// memory-pressure check relaxed pre-emptively, which keeps Relaxed).
	calls = 0
	res, err = MapPanorama(d, a, scriptedLower{
		succeed: func(allowed [][]int) bool { return true },
		calls:   &calls,
	}, Config{Seed: 1, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBack {
		t.Fatal("guided success must not be marked as fallback")
	}
	if calls != 1 {
		t.Fatalf("lower called %d times, want 1", calls)
	}
}

// fingerprint condenses the deterministic parts of a Result (everything
// except wall-clock timings and pool stats).
func fingerprint(r *Result) string {
	return fmt.Sprintf("II=%d QoM=%.9f K=%d interE=%d assign=%v rows=%v cols=%v relaxed=%v fellback=%v cands=%d",
		r.Lower.II, r.Lower.QoM, r.Partition.K, r.Partition.InterE, r.Partition.Assign,
		r.ClusterMap.Rows, r.ClusterMap.Cols, r.Relaxed, r.FellBack, r.Candidates)
}

func TestMapPanoramaParallelMatchesSerial(t *testing.T) {
	a := arch.Preset8x8()
	for _, kernel := range []string{"fir", "cordic", "mmul"} {
		for _, seed := range []int64{1, 2} {
			spec, err := kernels.ByName(kernel)
			if err != nil {
				t.Fatal(err)
			}
			var fps [2]string
			for i, workers := range []int{1, 4} {
				d := spec.Build(0.2)
				res, err := MapPanorama(d, a, UltraFastLower{},
					Config{Seed: seed, RelaxOnFailure: true, Workers: workers})
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", kernel, seed, workers, err)
				}
				fps[i] = fingerprint(res)
			}
			if fps[0] != fps[1] {
				t.Fatalf("%s seed %d: parallel result differs from serial\nserial:   %s\nparallel: %s",
					kernel, seed, fps[0], fps[1])
			}
		}
	}
}

func TestMapPanoramaCtxCancelled(t *testing.T) {
	d := firKernel(t, 0.25)
	a := arch.Preset8x8()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MapPanoramaCtx(ctx, d, a, UltraFastLower{},
		Config{Seed: 1, RelaxOnFailure: true, Workers: 2}); err == nil {
		t.Fatal("cancelled pipeline must fail")
	}
	if _, err := MapBaselineCtx(ctx, d, a, UltraFastLower{}); err == nil {
		t.Fatal("cancelled baseline must fail")
	}
}

func TestMapPanoramaRecordsPoolStats(t *testing.T) {
	d := firKernel(t, 0.25)
	a := arch.Preset8x8()
	res, err := MapPanorama(d, a, UltraFastLower{}, Config{Seed: 1, RelaxOnFailure: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SweepStats.Tasks == 0 || res.SweepStats.Workers == 0 {
		t.Fatalf("sweep stats not recorded: %+v", res.SweepStats)
	}
	if res.ClusterMapStats.Tasks == 0 {
		t.Fatalf("cluster-map stats not recorded: %+v", res.ClusterMapStats)
	}
}

func TestUltraFastLowerRespectsOptions(t *testing.T) {
	d := firKernel(t, 0.2)
	a := arch.Preset8x8()
	res, err := UltraFastLower{Options: ultrafast.Options{CrossbarCap: 1}}.Map(context.Background(), d, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	res4, err := UltraFastLower{Options: ultrafast.Options{CrossbarCap: 8}}.Map(context.Background(), d, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success && res4.Success && res.II < res4.II {
		t.Fatalf("tighter crossbar yielded better II (%d < %d)", res.II, res4.II)
	}
	// The mapping carries the capacity it was placed under, so the
	// oracle re-derives bandwidth against the mapper's own limit.
	for want, r := range map[int]LowerResult{1: res, 8: res4} {
		if !r.Success {
			continue
		}
		if r.Mapping.Model != verify.ModelCrossbar || r.Mapping.CrossbarCap != want {
			t.Errorf("cap %d: mapping stamped %s / cap %d", want, r.Mapping.Model, r.Mapping.CrossbarCap)
		}
		if err := verify.Check(d, a, r.Mapping, nil); err != nil {
			t.Errorf("cap %d: %v", want, err)
		}
	}
}

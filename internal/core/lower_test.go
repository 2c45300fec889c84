package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/dfgen"
	"panorama/internal/failure"
	"panorama/internal/verify"
)

func TestLowerRegistryBuiltins(t *testing.T) {
	names := LowerNames()
	want := []string{"spr", "ultrafast", "sat", "portfolio"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("builtin %q missing from registry %v", w, names)
		}
	}
	for _, n := range names {
		lw, err := NewLowerByName(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if lw.Name() != n {
			t.Fatalf("factory for %q built a mapper named %q", n, lw.Name())
		}
	}
	if _, err := NewLowerByName("nope", 1); err == nil {
		t.Fatal("unknown name did not error")
	}
}

// TestMapperNamesTracksRegistry: the accepted names are derived from
// the table — every mapper in bare and "pan-" form, in table order,
// and CheckMapper accepts exactly those.
func TestMapperNamesTracksRegistry(t *testing.T) {
	var want []string
	for _, n := range LowerNames() {
		want = append(want, n, "pan-"+n)
	}
	got := MapperNames()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MapperNames() = %v, want %v", got, want)
	}
	for _, m := range got {
		if err := CheckMapper(m); err != nil {
			t.Errorf("CheckMapper(%q) = %v", m, err)
		}
	}
	for _, m := range []string{"", "pan-", "magic", "pan-magic", "pan-pan-spr"} {
		var um *UnknownMapperError
		if err := CheckMapper(m); !errors.As(err, &um) || um.Name != m || !reflect.DeepEqual(um.Valid, want) {
			t.Errorf("CheckMapper(%q) = %v, want an UnknownMapperError listing the names", m, err)
		}
	}
}

// TestMapByNameMatchesTwoStepCall: the one name → run entry returns
// the mapping the spelled-out dispatch it replaces returns, for a bare
// and a "pan-" name, and rejects an unknown name before running.
func TestMapByNameMatchesTwoStepCall(t *testing.T) {
	g, a := portfolioTestGraph(), arch.Preset4x4()
	cfg := Config{Seed: 5, RelaxOnFailure: true, Workers: 1}
	ctx := context.Background()

	lower, err := NewLowerByName("spr", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantBase, err := MapBaselineCtx(ctx, g, a, lower)
	if err != nil {
		t.Fatal(err)
	}
	wantPan, err := MapPanoramaCtx(ctx, g, a, lower, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]*Result{"spr": wantBase, "pan-spr": wantPan} {
		got, err := MapByName(ctx, g, a, name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Lower.Success || (got.Partition != nil) != (want.Partition != nil) ||
			!reflect.DeepEqual(got.Lower.Mapping, want.Lower.Mapping) {
			t.Errorf("%s: MapByName mapped at II %d, the two-step call at II %d, or to another mapping",
				name, got.Lower.II, want.Lower.II)
		}
	}
	var um *UnknownMapperError
	if res, err := MapByName(ctx, g, a, "pan-magic", cfg); res != nil || !errors.As(err, &um) {
		t.Fatalf("unknown name: %v, %v", res, err)
	}
}

// TestMapByNameAppliesTotalBudgetToBaselines: a baseline run takes no
// Config, so MapByName itself puts Budgets.Total on the context — the
// caller does not wrap it.
func TestMapByNameAppliesTotalBudgetToBaselines(t *testing.T) {
	g := dfgen.Generate(11, dfgen.Params{Nodes: 120, ExtraEdges: 60, MaxFanout: 4, RecDensity: 0.1})
	res, err := MapByName(context.Background(), g, arch.Preset4x4(), "spr",
		Config{Seed: 1, Budgets: Budgets{Total: time.Millisecond}})
	if !errors.Is(err, failure.ErrBudget) {
		t.Fatalf("err = %v (result %+v), want ErrBudget", err, res)
	}
	if failure.StageOf(err) != "lower" || res == nil || res.Provenance.BudgetStage != "lower" {
		t.Fatalf("budget expiry not attributed to the lower stage: %v, %+v", err, res)
	}
}

func portfolioTestGraph() *dfg.Graph {
	return dfgen.Generate(42, dfgen.Params{Nodes: 10, ExtraEdges: 3, MaxFanout: 3, RecDensity: 0.2})
}

func TestPortfolioProducesVerifiedMapping(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	lw, err := NewLowerByName("portfolio", 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lw.Map(context.Background(), d, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("portfolio failed on an easy graph")
	}
	if res.Winner == "" {
		t.Fatal("winner not recorded")
	}
	if res.Mapping == nil {
		t.Fatal("no mapping attached")
	}
	if err := verify.Check(d, a, res.Mapping, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPortfolioWinnerMatchesSolo: whichever member wins, the result
// must be byte-identical to that member running solo with the same
// seed — the race selects, it must not perturb.
func TestPortfolioWinnerMatchesSolo(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	const seed = 7
	lw, _ := NewLowerByName("portfolio", seed)
	res, err := lw.Map(context.Background(), d, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("portfolio failed")
	}
	solo, err := NewLowerByName(res.Winner, seed)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := solo.Map(context.Background(), d, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Success || sres.II != res.II {
		t.Fatalf("solo %s: success=%v II=%d, portfolio II=%d", res.Winner, sres.Success, sres.II, res.II)
	}
	pm, sm := res.Mapping, sres.Mapping
	if pm.Model != sm.Model || pm.II != sm.II {
		t.Fatalf("mapping shape differs: %v/%d vs %v/%d", pm.Model, pm.II, sm.Model, sm.II)
	}
	for v := range pm.PlacePE {
		if pm.PlacePE[v] != sm.PlacePE[v] || pm.PlaceT[v] != sm.PlaceT[v] {
			t.Fatalf("placement differs at node %d", v)
		}
	}
	if len(pm.Routes) != len(sm.Routes) {
		t.Fatalf("route counts differ")
	}
	for ei := range pm.Routes {
		if len(pm.Routes[ei]) != len(sm.Routes[ei]) {
			t.Fatalf("route %d length differs", ei)
		}
		for i := range pm.Routes[ei] {
			if pm.Routes[ei][i] != sm.Routes[ei][i] {
				t.Fatalf("route %d differs at %d", ei, i)
			}
		}
	}
}

// TestPortfolioNoGoroutineLeak races repeatedly and checks that every
// member goroutine exits before Map returns (losers provably
// cancelled). Runs under -race in make check.
func TestPortfolioNoGoroutineLeak(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	before := runtime.NumGoroutine()
	lw, _ := NewLowerByName("portfolio", 3)
	for i := 0; i < 5; i++ {
		if _, err := lw.Map(context.Background(), d, a, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Give the runtime a moment to reap exited goroutines, then insist
	// the count returned to the baseline (with slack for test-runner
	// internals).
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPortfolioParentCancellation(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lw, _ := NewLowerByName("portfolio", 1)
	_, err := lw.Map(ctx, d, a, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// failingLower always reports a typed error, for ladder-semantics
// tests.
type failingLower struct{ err error }

func (f failingLower) Name() string { return "failing" }
func (f failingLower) Map(context.Context, *dfg.Graph, *arch.CGRA, [][]int) (LowerResult, error) {
	return LowerResult{}, f.err
}

// cleanFailLower fails without an error (clean infeasibility).
type cleanFailLower struct{}

func (cleanFailLower) Name() string { return "cleanfail" }
func (cleanFailLower) Map(context.Context, *dfg.Graph, *arch.CGRA, [][]int) (LowerResult, error) {
	return LowerResult{Success: false, MII: 3}, nil
}

func TestPortfolioAllFailPrefersCleanResult(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	boom := errors.New("boom")
	p := PortfolioLower{Lowers: []Lower{failingLower{err: boom}, cleanFailLower{}}}
	res, err := p.Map(context.Background(), d, a, nil)
	if err != nil {
		t.Fatalf("clean failure should win over an error, got %v", err)
	}
	if res.Success || res.MII != 3 || res.Winner != "" {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestPortfolioAllErrorPropagatesFirst(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	first := errors.New("first")
	p := PortfolioLower{Lowers: []Lower{failingLower{err: first}, failingLower{err: errors.New("second")}}}
	_, err := p.Map(context.Background(), d, a, nil)
	if !errors.Is(err, first) {
		t.Fatalf("got %v, want the first member's error", err)
	}
}

// TestPortfolioSurvivesMemberPanic races a panicking member (the
// shared panicLower from faultmatrix_test.go) against SPR*; the panic
// must be contained and the healthy member must still win.
func TestPortfolioSurvivesMemberPanic(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	spec, _ := LowerSpecOf("spr")
	p := PortfolioLower{Lowers: []Lower{panicLower{}, spec.New(1)}}
	res, err := p.Map(context.Background(), d, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Winner != "spr" {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestPortfolioRaceEfficiency: the race's wall clock should track the
// fastest member, not the slowest. With enough cores for the members
// to truly run in parallel the bound is 1.1x the best solo time (plus
// a small absolute slack for goroutine startup on sub-millisecond
// wins); on fewer cores the members time-slice one CPU and the wall
// degrades to roughly the sum of the losers' cancel windows, so the
// strict ratio is only logged, not asserted.
func TestPortfolioRaceEfficiency(t *testing.T) {
	d := portfolioTestGraph()
	a := arch.Preset4x4()
	const seed, reps = 7, 3

	best := time.Duration(1<<63 - 1)
	for _, m := range DefaultPortfolioMembers() {
		lw, err := NewLowerByName(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			res, err := lw.Map(context.Background(), d, a, nil)
			w := time.Since(t0)
			if err == nil && res.Success && w < best {
				best = w
			}
		}
	}

	race := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		res, err := NewPortfolioLower(seed).Map(context.Background(), d, a, nil)
		w := time.Since(t0)
		if err != nil || !res.Success {
			t.Fatalf("race rep %d failed: %v %+v", r, err, res)
		}
		if w < race {
			race = w
		}
	}

	ratio := float64(race) / float64(best)
	parallel := runtime.GOMAXPROCS(0) > len(DefaultPortfolioMembers())
	t.Logf("best solo %v, race %v, ratio %.2fx (GOMAXPROCS=%d)", best, race, ratio, runtime.GOMAXPROCS(0))
	if parallel && ratio > 1.1 && race-best > 5*time.Millisecond {
		t.Fatalf("race wall %v exceeds 1.1x best solo %v with parallel cores", race, best)
	}
	if !parallel && race > 2*time.Second {
		t.Fatalf("race wall %v absurd even for a time-sliced single-core run", race)
	}
}

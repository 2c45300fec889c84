package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/failure"
	"panorama/internal/faultinject"
)

// The fault matrix: every named injection site at every pipeline stage
// boundary, crossed with the degradation ladder. Each case must end in
// either a well-formed Result or a typed error from the failure
// taxonomy — never a crash, never an unclassified failure. Cases that
// pin a fault to the Nth hit run with Workers: 1 so the hit order is
// deterministic; every-hit rules are scheduling-independent and may run
// parallel.
func TestFaultMatrix(t *testing.T) {
	a := arch.Preset8x8()
	cfg := func() Config {
		return Config{Seed: 1, RelaxOnFailure: true, Workers: 1}
	}
	run := func(c Config, lower Lower) (*Result, error) {
		d := firKernel(t, 0.2)
		if lower == nil {
			lower = UltraFastLower{}
		}
		return MapPanoramaCtx(context.Background(), d, a, lower, c)
	}
	okLower := func(calls *int) Lower {
		return scriptedLower{succeed: func([][]int) bool { return true }, calls: calls}
	}

	t.Run("control", func(t *testing.T) {
		res, err := run(cfg(), nil)
		if err != nil || !res.Lower.Success {
			t.Fatalf("clean pipeline: success=%v err=%v", res != nil && res.Lower.Success, err)
		}
		if n := len(res.Provenance.Stages); n != 3 {
			t.Fatalf("provenance has %d stage records, want 3: %+v", n, res.Provenance.Stages)
		}
		if res.Provenance.BudgetStage != "" {
			t.Fatalf("BudgetStage = %q on a clean run", res.Provenance.BudgetStage)
		}
	})

	t.Run("eigensolve error", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteEigensolve, Kind: faultinject.Error, From: 1},
		}})()
		_, err := run(cfg(), nil)
		if failure.StageOf(err) != "clustering" {
			t.Fatalf("err = %v, want a clustering StageError", err)
		}
	})

	t.Run("eigensolve timeout aborts", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteEigensolve, Kind: faultinject.Timeout, From: 1},
		}})()
		res, err := run(cfg(), nil)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		if res == nil || res.Provenance.BudgetStage != "clustering" {
			t.Fatalf("BudgetStage = %q, want clustering", res.Provenance.BudgetStage)
		}
	})

	t.Run("eigensolve panic recovered", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteEigensolve, Kind: faultinject.Panic, From: 1},
		}})()
		_, err := run(cfg(), nil)
		var pe *failure.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a recovered *failure.PanicError", err)
		}
	})

	t.Run("kmeans error", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteKMeans, Kind: faultinject.Error, From: 1},
		}})()
		_, err := run(cfg(), nil)
		if failure.StageOf(err) != "clustering" {
			t.Fatalf("err = %v, want a clustering StageError", err)
		}
	})

	t.Run("kmeans panic in parallel pool", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteKMeans, Kind: faultinject.Panic, From: 1},
		}})()
		c := cfg()
		c.Workers = 2 // every-hit rule: safe at any worker count
		_, err := run(c, nil)
		var pe *failure.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a pool-recovered *failure.PanicError", err)
		}
		if pe.Index < 0 {
			t.Fatalf("pool panic lost its task index: %+v", pe)
		}
		if failure.StageOf(err) != "clustering" {
			t.Fatalf("err = %v, want attribution to clustering", err)
		}
	})

	t.Run("ilp budgeted on every solve", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteILPSolve, Kind: faultinject.Timeout, From: 1},
		}})()
		_, err := run(cfg(), nil)
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible (no solve ever produced an incumbent)", err)
		}
		if failure.StageOf(err) != "clustermap" {
			t.Fatalf("err = %v, want attribution to clustermap", err)
		}
	})

	t.Run("ilp budgeted once recovers via escalation", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteILPSolve, Kind: faultinject.Timeout, From: 1, Count: 1},
		}})()
		res, err := run(cfg(), nil)
		if err != nil || !res.Lower.Success {
			t.Fatalf("one lost solve must not sink the pipeline: err=%v", err)
		}
	})

	t.Run("lower rung error degrades to relaxed", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteLowerMap, Kind: faultinject.Error, From: 1, Count: 1},
		}})()
		calls := 0
		res, err := run(cfg(), okLower(&calls))
		if err != nil || !res.Lower.Success {
			t.Fatalf("relaxed rung must rescue an injected guided rung: err=%v", err)
		}
		if !res.Relaxed || res.FellBack {
			t.Fatalf("Relaxed=%v FellBack=%v, want the relaxed rung", res.Relaxed, res.FellBack)
		}
	})

	t.Run("lower rung timeout degrades to relaxed", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteLowerMap, Kind: faultinject.Timeout, From: 1, Count: 1},
		}})()
		calls := 0
		res, err := run(cfg(), okLower(&calls))
		if err != nil || !res.Lower.Success || !res.Relaxed {
			t.Fatalf("budgeted guided rung must degrade: err=%v relaxed=%v", err, res != nil && res.Relaxed)
		}
	})

	t.Run("lower error on every rung", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteLowerMap, Kind: faultinject.Error, From: 1},
		}})()
		calls := 0
		res, err := run(cfg(), okLower(&calls))
		if !errors.Is(err, ErrLowerFailed) {
			t.Fatalf("err = %v, want ErrLowerFailed after the ladder is exhausted", err)
		}
		if failure.StageOf(err) != "lower" {
			t.Fatalf("err = %v, want attribution to lower", err)
		}
		if res == nil || res.ClusterMap == nil {
			t.Fatal("the partial Result must keep the cluster mapping")
		}
	})

	t.Run("lower timeout on every rung", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteLowerMap, Kind: faultinject.Timeout, From: 1},
		}})()
		calls := 0
		res, err := run(cfg(), okLower(&calls))
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		if res == nil || res.Provenance.BudgetStage != "lower" {
			t.Fatalf("BudgetStage = %q, want lower", res.Provenance.BudgetStage)
		}
		if res.ClusterMap == nil {
			t.Fatal("the partial Result must keep the cluster mapping")
		}
	})

	t.Run("lower panic keeps partial result", func(t *testing.T) {
		defer faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteLowerMap, Kind: faultinject.Panic, From: 1},
		}})()
		calls := 0
		res, err := run(cfg(), okLower(&calls))
		var pe *failure.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a recovered *failure.PanicError", err)
		}
		if res == nil || res.ClusterMap == nil {
			t.Fatal("the partial Result must survive a lower-mapper panic")
		}
	})
}

// TestRealBudgets exercises the one wall clock, Budgets.Total, without
// fault injection: a genuinely expired deadline must produce a typed
// error, a partial result attributed to the stage it fired in, and
// bounded wall-clock.
func TestRealBudgets(t *testing.T) {
	a := arch.Preset8x8()

	t.Run("total budget returns promptly", func(t *testing.T) {
		d := firKernel(t, 0.2)
		t0 := time.Now()
		res, err := MapPanoramaCtx(context.Background(), d, a, UltraFastLower{},
			Config{Seed: 1, RelaxOnFailure: true, Workers: 1,
				Budgets: Budgets{Total: time.Nanosecond}})
		if el := time.Since(t0); el > 5*time.Second {
			t.Fatalf("1ns total budget took %v to return", el)
		}
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		if res == nil {
			t.Fatal("even an instantly expired run returns its (empty) partial Result")
		}
	})

	t.Run("lower budget keeps cluster mapping", func(t *testing.T) {
		// Clustering and cluster mapping take ~10 ms here; the lower
		// mapper then runs until the Total deadline fires, so the clock
		// expires in the lower stage.
		d := firKernel(t, 0.2)
		res, err := MapPanoramaCtx(context.Background(), d, a, stallLower{},
			Config{Seed: 1, RelaxOnFailure: true, Workers: 1,
				Budgets: Budgets{Total: 500 * time.Millisecond}})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		if res == nil || res.ClusterMap == nil {
			t.Fatal("partial Result must keep the cluster mapping")
		}
		if res.Provenance.BudgetStage != "lower" {
			t.Fatalf("BudgetStage = %q, want lower", res.Provenance.BudgetStage)
		}
	})

	t.Run("unbudgeted run untouched", func(t *testing.T) {
		d := firKernel(t, 0.2)
		res, err := MapPanoramaCtx(context.Background(), d, a, UltraFastLower{},
			Config{Seed: 1, RelaxOnFailure: true, Workers: 1})
		if err != nil || !res.Lower.Success {
			t.Fatalf("zero Budgets must mean unbounded: err=%v", err)
		}
	})
}

// stallLower is a lower mapper that never finishes on its own: it
// returns only when its context ends, for exercising a real deadline
// that fires mid-lower.
type stallLower struct{}

func (stallLower) Name() string { return "stall" }

func (stallLower) Map(ctx context.Context, _ *dfg.Graph, _ *arch.CGRA, _ [][]int) (LowerResult, error) {
	<-ctx.Done()
	return LowerResult{}, ctx.Err()
}

// panicLower is a lower mapper that always panics, for exercising the
// pipeline's top-level recover.
type panicLower struct{}

func (panicLower) Name() string { return "panic" }

func (panicLower) Map(context.Context, *dfg.Graph, *arch.CGRA, [][]int) (LowerResult, error) {
	panic("lower exploded")
}

func TestBaselinePanicRecovered(t *testing.T) {
	d := firKernel(t, 0.2)
	_, err := MapBaselineCtx(context.Background(), d, arch.Preset8x8(), panicLower{})
	var pe *failure.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered *failure.PanicError", err)
	}
}

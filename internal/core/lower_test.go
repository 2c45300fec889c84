package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/dfgen"
	"panorama/internal/failure"
)

// TestLowerRegistryBuiltins pins the table to exactly the three
// mappers, in order, each built under its own name.
func TestLowerRegistryBuiltins(t *testing.T) {
	names := LowerNames()
	if want := []string{"spr", "ultrafast", "sat"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("LowerNames() = %v, want %v", names, want)
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
	g, a := smallTestGraph(), arch.Preset4x4()
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

// smallTestGraph is a ten-node corpus graph SPR* maps in
// milliseconds on a 4x4 fabric.
func smallTestGraph() *dfg.Graph {
	return dfgen.Generate(42, dfgen.Params{Nodes: 10, ExtraEdges: 3, MaxFanout: 3, RecDensity: 0.2})
}

package core

import (
	"context"
	"fmt"
	"strings"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/satmap"
	"panorama/internal/spr"
	"panorama/internal/ultrafast"
)

// SATLower adapts internal/satmap (the SAT-backed modulo-scheduling
// mapper) to the Lower interface.
type SATLower struct {
	Options satmap.Options
}

// Name returns "sat".
func (s SATLower) Name() string { return "sat" }

// Map runs the SAT mapper.
func (s SATLower) Map(ctx context.Context, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (LowerResult, error) {
	opts := s.Options
	opts.AllowedClusters = allowed
	res, err := satmap.MapCtx(ctx, d, a, opts)
	if err != nil {
		return LowerResult{}, err
	}
	return lowered(res.Success, res.MII, res.II, res.Mapping), nil
}

// lowerSpec describes a lower-level mapper in the table: its wire
// name and a factory binding the deterministic seed.
type lowerSpec struct {
	// Name is the mapper's key ("spr", "ultrafast", "sat"); MapByName
	// also accepts it with PanPrefix for the guided pipeline.
	Name string
	// New constructs the mapper. Construction must be cheap; seed
	// makes the mapper's search deterministic where it applies.
	New func(seed int64) Lower
}

// lowerSpecs is the mapper table; its order is the order of
// LowerNames and MapperNames.
var lowerSpecs = []lowerSpec{
	{Name: "spr", New: func(seed int64) Lower {
		return SPRLower{Options: spr.Options{Seed: seed}}
	}},
	{Name: "ultrafast", New: func(int64) Lower {
		return UltraFastLower{Options: ultrafast.Options{}}
	}},
	{Name: "sat", New: func(seed int64) Lower {
		return SATLower{Options: satmap.Options{Seed: seed}}
	}},
}

// LowerNames returns the mapper names in table order.
func LowerNames() []string {
	out := make([]string, len(lowerSpecs))
	for i, spec := range lowerSpecs {
		out[i] = spec.Name
	}
	return out
}

// lowerSpecOf looks up a mapper by name.
func lowerSpecOf(name string) (lowerSpec, bool) {
	for _, spec := range lowerSpecs {
		if spec.Name == name {
			return spec, true
		}
	}
	return lowerSpec{}, false
}

// NewLowerByName constructs a mapper from the table; the error lists
// the valid names for caller-facing diagnostics.
func NewLowerByName(name string, seed int64) (Lower, error) {
	spec, ok := lowerSpecOf(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown lower mapper %q (valid: %v)", name, LowerNames())
	}
	return spec.New(seed), nil
}

// PanPrefix marks the guided Panorama pipeline in a mapper name:
// "pan-spr" runs the full clustering → cluster-mapping → lowering
// stack with SPR* at the bottom, bare "spr" runs the same lowerer as
// an unguided baseline.
const PanPrefix = "pan-"

// MapperNames lists the names MapByName accepts — the CLI's -mapper
// values and the service's Request.Mapper values: every mapper of the
// table in its bare (baseline) and PanPrefix (guided) form, in table
// order, so a new mapper shows up everywhere without further edits.
func MapperNames() []string {
	out := make([]string, 0, 2*len(lowerSpecs))
	for _, spec := range lowerSpecs {
		out = append(out, spec.Name, PanPrefix+spec.Name)
	}
	return out
}

// UnknownMapperError reports a mapper name outside MapperNames; Valid
// carries the accepted names for caller-facing diagnostics.
type UnknownMapperError struct {
	Name  string
	Valid []string
}

// Error formats the rejected name and the accepted alternatives.
func (e *UnknownMapperError) Error() string {
	return fmt.Sprintf("unknown mapper %q (want one of %v)", e.Name, e.Valid)
}

// lookupMapper is the one split of a mapper name: its table entry and
// whether it selects the guided pipeline, or an *UnknownMapperError.
func lookupMapper(name string) (spec lowerSpec, guided bool, err error) {
	bare, guided := strings.CutPrefix(name, PanPrefix)
	spec, ok := lowerSpecOf(bare)
	if !ok {
		return spec, guided, &UnknownMapperError{Name: name, Valid: MapperNames()}
	}
	return spec, guided, nil
}

// CheckMapper returns nil for a name in MapperNames and an
// *UnknownMapperError for any other.
func CheckMapper(name string) error {
	_, _, err := lookupMapper(name)
	return err
}

// MapByName is the one name → run entry: it builds the named mapper
// from the table (seeded with cfg.Seed) and runs the guided pipeline
// around it for a PanPrefix name, the unguided baseline for a bare
// one. A baseline run takes nothing of cfg but the seed and
// Budgets.Total, which is applied here so callers never wrap the
// context themselves.
func MapByName(ctx context.Context, d *dfg.Graph, a *arch.CGRA, mapper string, cfg Config) (*Result, error) {
	spec, guided, err := lookupMapper(mapper)
	if err != nil {
		return nil, err
	}
	lower := spec.New(cfg.Seed)
	if guided {
		return MapPanoramaCtx(ctx, d, a, lower, cfg)
	}
	if cfg.Budgets.Total > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Budgets.Total)
		defer cancel()
	}
	return MapBaselineCtx(ctx, d, a, lower)
}

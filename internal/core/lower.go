package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/obs"
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

// LowerSpec describes a lower-level mapper in the table: its wire
// name and a factory binding the deterministic seed.
type LowerSpec struct {
	// Name is the mapper's key ("spr", "ultrafast", "sat",
	// "portfolio"); MapByName also accepts it with PanPrefix for the
	// guided pipeline.
	Name string
	// New constructs the mapper. Construction must be cheap; seed
	// makes the mapper's search deterministic where it applies.
	New func(seed int64) Lower
}

// lowerSpecs is the mapper table; its order is the order of
// LowerNames and MapperNames.
var lowerSpecs = []LowerSpec{
	{Name: "spr", New: func(seed int64) Lower {
		return SPRLower{Options: spr.Options{Seed: seed}}
	}},
	{Name: "ultrafast", New: func(int64) Lower {
		return UltraFastLower{Options: ultrafast.Options{}}
	}},
	{Name: "sat", New: func(seed int64) Lower {
		return SATLower{Options: satmap.Options{Seed: seed}}
	}},
	{Name: "portfolio", New: NewPortfolioLower},
}

// LowerNames returns the mapper names in table order.
func LowerNames() []string {
	out := make([]string, len(lowerSpecs))
	for i, spec := range lowerSpecs {
		out[i] = spec.Name
	}
	return out
}

// LowerSpecOf looks up a mapper by name.
func LowerSpecOf(name string) (LowerSpec, bool) {
	for _, spec := range lowerSpecs {
		if spec.Name == name {
			return spec, true
		}
	}
	return LowerSpec{}, false
}

// NewLowerByName constructs a mapper from the table; the error lists
// the valid names for caller-facing diagnostics.
func NewLowerByName(name string, seed int64) (Lower, error) {
	spec, ok := LowerSpecOf(name)
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
func lookupMapper(name string) (spec LowerSpec, guided bool, err error) {
	bare, guided := strings.CutPrefix(name, PanPrefix)
	spec, ok := LowerSpecOf(bare)
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

// Portfolio racing metrics; see OBSERVABILITY.md.
var (
	mPortfolioRaces = obs.NewCounterVec("panorama_portfolio_races_total",
		"Portfolio races by outcome (ok, fail, error).", "outcome")
	mPortfolioWins = obs.NewCounterVec("panorama_portfolio_wins_total",
		"Portfolio races won, by member mapper.", "mapper")
	mPortfolioCancelled = obs.NewCounterVec("panorama_portfolio_cancelled_total",
		"Portfolio members cancelled after another member won, by mapper.", "mapper")
	mPortfolioMemberMS = obs.NewCounterVec("panorama_portfolio_member_ms_total",
		"Wall milliseconds spent by portfolio members (winners and cancelled losers alike), by mapper.",
		"mapper")
)

// DefaultPortfolioMembers lists the default portfolio's member mapper
// names, in race order (matching NewPortfolioLower).
func DefaultPortfolioMembers() []string { return []string{"spr", "ultrafast", "sat"} }

// NewPortfolioLower builds the default racing portfolio: SPR*,
// UltraFast*, and SAT*, all seeded for determinism.
func NewPortfolioLower(seed int64) Lower {
	return PortfolioLower{Lowers: []Lower{
		SPRLower{Options: spr.Options{Seed: seed}},
		UltraFastLower{Options: ultrafast.Options{}},
		SATLower{Options: satmap.Options{Seed: seed}},
	}}
}

// PortfolioLower races several lower mappers concurrently: the first
// feasible mapping wins, the losers are cancelled through the shared
// context, and their effort is charged to the panorama_portfolio_*
// metric family. The returned mapping is byte-identical to what the
// winning mapper would produce running solo with the same seed (each
// member's search is deterministic; the race only selects among them).
// Map returns only after every member goroutine has exited, so no
// work outlives the call.
type PortfolioLower struct {
	Lowers []Lower
}

// Name returns "portfolio".
func (p PortfolioLower) Name() string { return "portfolio" }

// outcome is one member's finished race leg.
type outcome struct {
	idx  int
	res  LowerResult
	err  error
	wall time.Duration
}

// Map races the portfolio members.
func (p PortfolioLower) Map(ctx context.Context, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (LowerResult, error) {
	if len(p.Lowers) == 0 {
		return LowerResult{}, errors.New("core: empty portfolio")
	}
	// Freeze before fanning out: afterwards every dfg accessor is a
	// pure read, so the members can share the graph without locks.
	if err := d.Freeze(); err != nil {
		return LowerResult{}, err
	}
	ctx, span := obs.StartSpan(ctx, "portfolio.race")
	defer span.End()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	ch := make(chan outcome, len(p.Lowers))
	var wg sync.WaitGroup
	for i, lw := range p.Lowers {
		wg.Add(1)
		go func(i int, lw Lower) {
			defer wg.Done()
			t0 := time.Now()
			res, err := func() (res LowerResult, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("core: portfolio member %s panicked: %v", lw.Name(), r)
					}
				}()
				return lw.Map(rctx, d, a, allowed)
			}()
			ch <- outcome{idx: i, res: res, err: err, wall: time.Since(t0)}
		}(i, lw)
	}

	outs := make([]outcome, len(p.Lowers))
	winner := -1
	for received := 0; received < len(p.Lowers); received++ {
		o := <-ch
		outs[o.idx] = o
		if winner < 0 && o.err == nil && o.res.Success {
			winner = o.idx
			cancel() // losers stop; the loop still drains their outcomes
		}
	}
	wg.Wait() // every member goroutine has exited

	for i := range outs {
		name := p.Lowers[i].Name()
		mPortfolioMemberMS.With(name).Add(outs[i].wall.Milliseconds())
		span.Add("portfolio."+name+".ms", outs[i].wall.Milliseconds())
		if winner >= 0 && i != winner {
			mPortfolioCancelled.With(name).Inc()
		}
	}
	if winner >= 0 {
		name := p.Lowers[winner].Name()
		mPortfolioRaces.With("ok").Inc()
		mPortfolioWins.With(name).Inc()
		res := outs[winner].res
		res.Winner = name
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		mPortfolioRaces.With("error").Inc()
		return LowerResult{}, err
	}
	// Nobody produced a mapping and the parent context is alive, so
	// every member finished on its own. Prefer the first clean
	// (non-error) failure in member order for a deterministic result;
	// otherwise propagate the first member's error (it is the primary
	// mapper, so its budget/infeasibility class drives the retry
	// ladder).
	for i := range outs {
		if outs[i].err == nil {
			mPortfolioRaces.With("fail").Inc()
			return outs[i].res, nil
		}
	}
	mPortfolioRaces.With("error").Inc()
	return LowerResult{}, outs[0].err
}

package bench

import (
	"context"
	"fmt"
	"os"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/obs"
	"panorama/internal/service"
)

// mapSummary runs one kernel×arch×mapper configuration — the unit of
// work every comparison table is built from — through the optional
// shared result cache. With cfg.Cache set, identical configurations
// across tables and harness invocations (e.g. the Pan-SPR* runs that
// both Figure 7 and Figure 8 need, or a re-render after editing only
// the formatting) execute the pipeline once; the key is the service's
// canonical fingerprint over the DFG, the architecture parameters, the
// mapper name, cfg.Seed and the per-configuration budget. Runs that
// end in a typed failure are reported but never cached, so a transient
// timeout does not poison later reuse.
func (c Config) mapSummary(ctx context.Context, g *dfg.Graph, a *arch.CGRA, lower core.Lower, pan bool) (core.Summary, error) {
	mapper := lower.Name()
	if pan {
		mapper = core.PanPrefix + mapper
	}
	ctx, sp := obs.StartSpan(ctx, "config")
	sp.Set("kernel", g.Name)
	sp.Set("arch", a.Name)
	sp.Set("mapper", mapper)
	defer sp.End()
	var fp string
	if c.Cache != nil {
		fp = service.Key(g, a, mapper, c.Seed, core.Budgets{Total: c.Timeout})
		if e, ok := c.Cache.Get(fp); ok {
			sp.Set("cache", "hit")
			return e.Summary, nil
		}
	}

	var res *core.Result
	var err error
	if pan {
		res, err = core.MapPanoramaCtx(ctx, g, a, lower, c.panoramaConfig())
	} else {
		res, err = core.MapBaselineCtx(ctx, g, a, lower)
	}
	if err != nil {
		if res != nil {
			return res.Summarize(), err
		}
		return core.Summary{}, err
	}
	sum := res.Summarize()
	if c.Cache != nil {
		if perr := c.Cache.Put(service.Entry{Fingerprint: fp, Summary: sum}); perr != nil {
			fmt.Fprintln(os.Stderr, "bench: cache:", perr)
		}
	}
	return sum, nil
}

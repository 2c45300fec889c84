package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/pool"
	"panorama/internal/spr"
)

// countingSPR is core.SPRLower for one seed that also sums the router
// relaxations of every attempt it runs into relax.
type countingSPR struct {
	seed  int64
	relax *atomic.Int64
}

func (c countingSPR) Name() string { return "spr" }

func (c countingSPR) Map(ctx context.Context, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (core.LowerResult, error) {
	res, err := spr.MapCtx(ctx, d, a, spr.Options{Seed: c.seed, AllowedClusters: allowed})
	if err != nil {
		return core.LowerResult{}, err
	}
	for _, att := range res.Attempts {
		c.relax.Add(att.Relax)
	}
	return core.LowerResult{Success: res.Success, MII: res.MII, II: res.II,
		QoM: arch.QoM(res.MII, res.II), Mapping: res.Mapping}, nil
}

// TestIIEnsembleGolden judges II changes by an ensemble of seeds: SPR*
// and Pan-SPR* map the twelve kernels at quick scale on 8x8 with seeds
// 1-8, and testdata/ii_ensemble.golden holds, per (kernel, mapper), the
// sorted II list, its median and the router relaxations spent, then
// per mapper the II total and relaxation total. The identity golden
// says whether seed 1's mapping moved; this file says whether the
// mappers got better or worse. Every run is an exact function of its
// seed, so the comparison is ==; a change that means to move an II
// regenerates the file with -update and states the old and new totals.
func TestIIEnsembleGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("192 mapper runs: about a minute on two CPUs, several under -race (make check-ii)")
	}
	const (
		scale = 0.25
		seeds = 8
	)
	mappers := []string{"spr", "pan-spr"}
	specs := kernels.All()
	a8 := arch.Preset8x8()

	type run struct {
		ii    int
		relax atomic.Int64
	}
	perMapper := len(specs) * seeds
	runs := make([]run, len(mappers)*perMapper)
	_, err := pool.Run(context.Background(), 0, len(runs), func(i int) error {
		m, k, seed := i/perMapper, i%perMapper/seeds, int64(i%seeds+1)
		lower := countingSPR{seed: seed, relax: &runs[i].relax}
		g := specs[k].Build(scale)
		var lr core.LowerResult
		if mappers[m] == "spr" {
			var err error
			if lr, err = lower.Map(context.Background(), g, a8, nil); err != nil {
				return err
			}
		} else {
			res, err := core.MapPanoramaCtx(context.Background(), g, a8, lower,
				core.Config{Seed: seed, RelaxOnFailure: true, Workers: 1})
			if err != nil {
				return err
			}
			lr = res.Lower
		}
		if !lr.Success {
			return fmt.Errorf("%s %s seed %d: no mapping", specs[k].Name, mappers[m], seed)
		}
		runs[i].ii = lr.II
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	for m, mapper := range mappers {
		total, relax := 0, int64(0)
		for k, spec := range specs {
			iis := make([]int, seeds)
			var rowRelax int64
			for s := range iis {
				r := &runs[m*perMapper+k*seeds+s]
				iis[s] = r.ii
				rowRelax += r.relax.Load()
			}
			sort.Ints(iis)
			list := make([]string, seeds)
			for s, ii := range iis {
				list[s] = fmt.Sprint(ii)
				total += ii
			}
			relax += rowRelax
			fmt.Fprintf(&got, "%s %s ii=%s median=%g relax=%d\n", spec.Name, mapper,
				strings.Join(list, ","), float64(iis[seeds/2-1]+iis[seeds/2])/2, rowRelax)
		}
		fmt.Fprintf(&got, "%s total=%d relax=%d\n", mapper, total, relax)
	}
	compareGolden(t, "testdata/ii_ensemble.golden", got.String())
}

package bench

import (
	"context"
	"fmt"
	"strings"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/obs"
	"panorama/internal/power"
	"panorama/internal/spectral"
)

// Fig5Series is the imbalance-factor curve of one kernel (Figure 5).
type Fig5Series struct {
	Kernel string
	KMin   int
	IF     []float64 // IF[i] is the imbalance factor at k = KMin+i
}

// Figure5 regenerates the imbalance-factor-vs-cluster-count curves,
// one worker-pool task per kernel.
func Figure5(cfg Config) ([]Fig5Series, error) {
	a := cfg.Arch()
	kMin := a.ClusterRows
	kMax := 2 * a.NumClusters()
	return mapOrdered(cfg, len(cfg.Fig5Kernels), func(ctx context.Context, i int) (Fig5Series, error) {
		name := cfg.Fig5Kernels[i]
		g, err := cfg.buildKernel(name)
		if err != nil {
			return Fig5Series{}, err
		}
		parts, _, err := spectral.SweepCtx(ctx, g, kMin, kMax, cfg.Seed, 1)
		if err != nil {
			return Fig5Series{}, fmt.Errorf("%s: %w", name, err)
		}
		s := Fig5Series{Kernel: name, KMin: kMin}
		for _, p := range parts {
			s.IF = append(s.IF, p.IF)
		}
		return s, nil
	})
}

// RenderFigure5 prints the IF curves as one row per k.
func RenderFigure5(series []Fig5Series) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s", "k")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Kernel)
	}
	b.WriteString("\n")
	for i := 0; i < len(series[0].IF); i++ {
		fmt.Fprintf(&b, "%4d", series[0].KMin+i)
		for _, s := range series {
			if i < len(s.IF) {
				fmt.Fprintf(&b, " %14.3f", s.IF[i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CompareRow is one kernel's baseline-vs-Panorama comparison (the bar
// pairs of Figures 7 and 9).
type CompareRow struct {
	Kernel  string
	MII     int
	BaseII  int // 0 = failed
	PanII   int // 0 = failed
	BaseQoM float64
	PanQoM  float64
	BaseSec float64
	PanSec  float64
	// Relaxed: memory ops were freed but the mapping is still guided.
	// FellBack: guidance was abandoned and the Pan columns report an
	// unguided baseline run (flagged so the table never attributes
	// baseline quality to guided mapping).
	Relaxed  bool
	FellBack bool
	// BaseStatus/PanStatus are "" for clean runs, "timeout" when the
	// per-configuration budget fired, "fail" on any other error; the
	// row stays in the table either way.
	BaseStatus string
	PanStatus  string
}

// Figure7 compares SPR* against Pan-SPR* on every kernel.
func Figure7(cfg Config) ([]CompareRow, error) {
	return compare(cfg, cfg.sprLower())
}

// Figure9 compares UltraFast* against Pan-UltraFast* on every kernel.
func Figure9(cfg Config) ([]CompareRow, error) {
	return compare(cfg, cfg.ultraFastLower())
}

func compare(cfg Config, lower core.Lower) ([]CompareRow, error) {
	a := cfg.Arch()
	return mapOrdered(cfg, len(cfg.Kernels), func(ctx context.Context, i int) (CompareRow, error) {
		name := cfg.Kernels[i]
		g, err := cfg.buildKernel(name)
		if err != nil {
			return CompareRow{}, err
		}
		row := CompareRow{Kernel: name}
		base, err := cfg.mapRun(ctx, g, a, lower, false)
		row.BaseStatus = status(ctx, err)
		if err == nil {
			row.MII = base.Lower.MII
			row.BaseII = base.Lower.II
			row.BaseQoM = base.Lower.QoM
			row.BaseSec = base.TotalTime().Seconds()
		}
		pan, err := cfg.mapRun(ctx, g, a, lower, true)
		row.PanStatus = status(ctx, err)
		if err == nil {
			row.MII = pan.Lower.MII
			row.PanII = pan.Lower.II
			row.PanQoM = pan.Lower.QoM
			row.PanSec = pan.TotalTime().Seconds()
			row.Relaxed = pan.Relaxed
			row.FellBack = pan.FellBack
		}
		return row, nil
	})
}

// mapRun runs one kernel×arch×mapper configuration — the unit of work
// every comparison table is built from — under its own "config" span.
// Every call runs the pipeline: Figures 7 and 9 report the run's
// compile time, which no cached result could supply.
func (c Config) mapRun(ctx context.Context, g *dfg.Graph, a *arch.CGRA, lower core.Lower, pan bool) (*core.Result, error) {
	mapper := lower.Name()
	if pan {
		mapper = core.PanPrefix + mapper
	}
	ctx, sp := obs.StartSpan(ctx, "config")
	sp.Set("kernel", g.Name)
	sp.Set("arch", a.Name)
	sp.Set("mapper", mapper)
	defer sp.End()
	if pan {
		return core.MapPanoramaCtx(ctx, g, a, lower, c.panoramaConfig())
	}
	return core.MapBaselineCtx(ctx, g, a, lower)
}

// RenderCompare formats Figure 7 / Figure 9 rows with summary ratios.
func RenderCompare(rows []CompareRow, baseName, panName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %4s | %5s %6s %9s | %5s %6s %9s\n",
		"Kernel", "MII",
		baseName+"II", "QoM", "time",
		panName+"II", "QoM", "time")
	var baseQ, panQ, baseT, panT float64
	n := 0
	for _, r := range rows {
		if r.BaseStatus != "" || r.PanStatus != "" {
			// Timeout/fail rows keep their place but report no numbers
			// and are excluded from the averages.
			mark := func(s string) string {
				if s == "" {
					return "ok"
				}
				return s
			}
			fmt.Fprintf(&b, "%-14s %4s | %5s %6s %9s | %5s %6s %9s   base=%s pan=%s\n",
				r.Kernel, "-", "-", "-", "-", "-", "-", "-",
				mark(r.BaseStatus), mark(r.PanStatus))
			continue
		}
		fmt.Fprintf(&b, "%-14s %4d | %5d %6.2f %8.2fs | %5d %6.2f %8.2fs\n",
			r.Kernel, r.MII, r.BaseII, r.BaseQoM, r.BaseSec, r.PanII, r.PanQoM, r.PanSec)
		baseQ += r.BaseQoM
		panQ += r.PanQoM
		baseT += r.BaseSec
		panT += r.PanSec
		n++
	}
	if n > 0 {
		fn := float64(n)
		qGain := 0.0
		if baseQ > 0 {
			qGain = (panQ/baseQ - 1) * 100
		}
		speedup := 0.0
		if panT > 0 {
			speedup = baseT / panT
		}
		fmt.Fprintf(&b, "%-14s %4s | %5s %6.2f %8.2fs | %5s %6.2f %8.2fs   QoM %+.0f%%, compile %.1fx\n",
			"average", "", "", baseQ/fn, baseT/fn, "", panQ/fn, panT/fn, qGain, speedup)
	}
	return b.String()
}

// Fig8Row is one kernel's power-efficiency set (Figure 8), normalised
// to SPR* on the small array.
type Fig8Row struct {
	Kernel string
	// Raw MOPS/mW values.
	SmallBase, SmallPan, BigBase, BigPan float64
	// Normalised to SmallBase (the paper's presentation).
	NormSmallPan, NormBigBase, NormBigPan float64
}

// Figure8 regenerates the power-efficiency comparison: SPR* and
// Pan-SPR* on the small (9x9 in the paper) and large (16x16) arrays.
func Figure8(cfg Config) ([]Fig8Row, error) {
	model := power.Default40nm()
	small := cfg.ArchSmall()
	big := cfg.Arch()
	lower := cfg.sprLower()
	return mapOrdered(cfg, len(cfg.Fig8Kernels), func(ctx context.Context, i int) (Fig8Row, error) {
		name := cfg.Fig8Kernels[i]
		g, err := cfg.buildKernel(name)
		if err != nil {
			return Fig8Row{}, err
		}
		row := Fig8Row{Kernel: name}
		eff := func(archPick string, pan bool) (float64, error) {
			a := big
			if archPick == "small" {
				a = small
			}
			res, err := cfg.mapRun(ctx, g, a, lower, pan)
			if err != nil || !res.Lower.Success {
				return 0, err
			}
			return model.Efficiency(
				power.Arch{PEs: a.NumPEs(), Clusters: a.NumClusters()},
				power.MappingStats{Ops: g.NumNodes(), II: res.Lower.II},
				100)
		}
		if row.SmallBase, err = eff("small", false); err != nil {
			return Fig8Row{}, fmt.Errorf("%s small base: %w", name, err)
		}
		if row.SmallPan, err = eff("small", true); err != nil {
			return Fig8Row{}, fmt.Errorf("%s small pan: %w", name, err)
		}
		if row.BigBase, err = eff("big", false); err != nil {
			return Fig8Row{}, fmt.Errorf("%s big base: %w", name, err)
		}
		if row.BigPan, err = eff("big", true); err != nil {
			return Fig8Row{}, fmt.Errorf("%s big pan: %w", name, err)
		}
		if row.SmallBase > 0 {
			row.NormSmallPan = row.SmallPan / row.SmallBase
			row.NormBigBase = row.BigBase / row.SmallBase
			row.NormBigPan = row.BigPan / row.SmallBase
		}
		return row, nil
	})
}

// RenderFigure8 formats the normalised power-efficiency table.
func RenderFigure8(rows []Fig8Row, smallName, bigName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s | %12s %12s %12s %12s   (normalised to SPR* on %s)\n",
		"Kernel", "SPR*/"+smallName, "Pan/"+smallName, "SPR*/"+bigName, "Pan/"+bigName, smallName)
	var sb, sp, bb, bp float64
	n := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s | %12.2f %12.2f %12.2f %12.2f\n",
			r.Kernel, 1.0, r.NormSmallPan, r.NormBigBase, r.NormBigPan)
		sb += 1
		sp += r.NormSmallPan
		bb += r.NormBigBase
		bp += r.NormBigPan
		n++
	}
	if n > 0 {
		fn := float64(n)
		fmt.Fprintf(&b, "%-14s | %12.2f %12.2f %12.2f %12.2f\n", "average", sb/fn, sp/fn, bb/fn, bp/fn)
		if bb > 0 {
			fmt.Fprintf(&b, "large-array gain over small: %+.0f%%; Pan over SPR* on %s: %+.0f%%\n",
				(bb/fn-1)*100, bigName, (bp/bb-1)*100)
		}
	}
	return b.String()
}

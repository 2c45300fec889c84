// Command experiments regenerates the tables and figures of the
// paper's evaluation section (Table 1a/1b, Figures 5/7/8/9) plus the
// ablation studies listed in DESIGN.md.
//
// Usage:
//
//	experiments                 # everything, quick (scaled) config
//	experiments -full           # paper-scale config (slow)
//	experiments -table 1a       # a single table
//	experiments -figure 7       # a single figure
//	experiments -ablations      # the ablation suite
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"panorama/internal/bench"
	"panorama/internal/obs"
)

func main() {
	var (
		full     = flag.Bool("full", false, "paper-scale configuration (16x16, full kernels; slow)")
		table    = flag.String("table", "", "regenerate one table: 1a or 1b")
		figure   = flag.String("figure", "", "regenerate one figure: 5, 7, 8 or 9")
		ablation = flag.Bool("ablations", false, "run the ablation suite")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("j", 0, "worker pool size for the harness (0 = one per CPU, 1 = serial)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per configuration, e.g. 2m (0 = unbounded); a run that exceeds it keeps its table row, marked (timeout)")
		traceOut = flag.String("trace-out", "", "write the whole harness's span tree as JSON to this file (one subtree per section)")
	)
	flag.Parse()

	cfg := bench.Quick()
	if *full {
		cfg = bench.Full()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Timeout = *timeout
	smallName, bigName := "4x4", "8x8"
	if *full {
		smallName, bigName = "9x9", "16x16"
	}

	runAll := *table == "" && *figure == "" && !*ablation

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("experiments")
		defer writeTrace(tr, *traceOut)
	}

	section := func(name string, f func() error) {
		fmt.Printf("==== %s (%s config) ====\n", name, cfg.Name)
		var sp *obs.Span
		if tr != nil {
			sp = tr.Root().Child(name)
		}
		cfg.TraceSpan = sp
		before := bench.EffortSnapshot()
		t0 := time.Now()
		err := f()
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(bench.RenderEffort(before, bench.EffortSnapshot()))
		fmt.Printf("[%s took %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	if runAll || *table == "1a" {
		section("Table 1a: clustering and cluster mapping", func() error {
			rows, err := bench.Table1a(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderTable1a(rows))
			return nil
		})
	}
	if runAll || *table == "1b" {
		section("Table 1b: compiler scalability summary", func() error {
			rows, err := bench.Table1b(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderTable1b(rows))
			return nil
		})
	}
	if runAll || *figure == "5" {
		section("Figure 5: imbalance factor vs clusters", func() error {
			series, err := bench.Figure5(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderFigure5(series))
			return nil
		})
	}
	if runAll || *figure == "7" {
		section("Figure 7: SPR* vs Pan-SPR*", func() error {
			rows, err := bench.Figure7(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderCompare(rows, "SPR*", "Pan"))
			return nil
		})
	}
	if runAll || *figure == "8" {
		section("Figure 8: power efficiency", func() error {
			rows, err := bench.Figure8(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderFigure8(rows, smallName, bigName))
			return nil
		})
	}
	if runAll || *figure == "9" {
		section("Figure 9: UltraFast vs Pan-UltraFast", func() error {
			rows, err := bench.Figure9(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderCompare(rows, "UF", "Pan"))
			return nil
		})
	}
	if runAll || *ablation {
		section("Ablation: spectral vs BFS clustering", func() error {
			rows, err := bench.AblationClustering(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAblation("inter-cluster edges (lower is better)", rows))
			return nil
		})
		section("Ablation: matching-cut constraints", func() error {
			rows, err := bench.AblationMatchingCut(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAblation("weighted cluster distance (lower is better)", rows))
			return nil
		})
		section("Ablation: top-3 vs top-1 partitions", func() error {
			rows, err := bench.AblationTop3(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAblation("QoM (higher is better)", rows))
			return nil
		})
		section("Ablation: express inter-cluster links", func() error {
			rows, err := bench.AblationExpressLinks(cfg)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderAblation("achieved II (lower is better)", rows))
			return nil
		})
		section("Seed sensitivity (SPR*)", func() error {
			rows, err := bench.SeedStudy(cfg, nil)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderSeedStudy(rows))
			return nil
		})
		section("Scalability: compile time vs kernel size", func() error {
			rows, err := bench.Scaling(cfg, "conv2d", nil)
			if err != nil {
				return err
			}
			fmt.Print(bench.RenderScaling("conv2d", rows))
			return nil
		})
	}
}

// writeTrace ends the trace's root span and writes the span tree as
// JSON (best-effort: a trace failure never fails the harness).
func writeTrace(tr *obs.Trace, path string) {
	tr.Root().End()
	data, err := tr.JSON()
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote trace to %s\n", path)
}

// Command benchmark is the repository's performance benchmark: four
// workloads, six gated end-to-end metrics, and a traced run that
// attributes the time to layers. BENCHMARK.json at the repository
// root is its contract with the driver; README.md in this directory
// says what every number means.
//
//	go run ./benchmark -workload mid16-panspr            # end-to-end metrics
//	go run ./benchmark -workload mid16-panspr -trace 1   # per-layer metrics
//	go run ./benchmark -workload svc-mix -repeat 10      # steadiness table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// specFile is the benchmark's table of workloads and metrics, read
// relative to the repository root the program is run from.
const specFile = "BENCHMARK.json"

// budget is how much timed work the passes should add up to. A smoke
// run does one pass.
func (c config) budget() time.Duration {
	if c.smoke {
		return 0
	}
	return time.Duration(c.seconds * float64(time.Second))
}

// setupRepeats is how many set-ups a run makes when the workload asks
// for n: a smoke run makes one.
func (c config) setupRepeats(n int) int {
	if c.smoke {
		return 1
	}
	return n
}

func (c config) rulerIters() int {
	if c.smoke {
		return rulerIters / 100
	}
	return rulerIters
}

// run measures one workload: the end-to-end metrics, or the per-layer
// ones when traced.
func run(ctx context.Context, cfg config) (*report, error) {
	spec, compile := compileSpecs[cfg.workload]
	if cfg.smoke {
		spec = smokeSpec(spec)
	}
	switch {
	case compile && cfg.trace:
		return traceCompile(ctx, cfg, spec)
	case compile:
		return runCompile(ctx, cfg, spec)
	case cfg.workload == "svc-mix" && cfg.trace:
		return traceSvc(ctx, cfg)
	case cfg.workload == "svc-mix":
		return runSvc(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json lists them)", cfg.workload)
}

// repeat runs the workload n times in fresh processes, seed, seed+1,
// ..., and prints per end-to-end metric how far the runs spread: the
// interquartile range over the median (what the driver accepts the
// benchmark on) and (max-min)/median, against the metric's bound.
func repeat(cfg config, endToEnd []metricDef, n int, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", cfg.outDir)
		if cfg.smoke {
			cmd.Args = append(cmd.Args, "-smoke")
		}
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w\n%s", i, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines {
			if strings.HasPrefix(l, "# host.") {
				fmt.Fprintln(w, l)
			}
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			return fmt.Errorf("run %d: parsing result line: %w", i, err)
		}
		fmt.Fprintf(w, "run %d seed %d:", i, cfg.seed+int64(i))
		for _, d := range endToEnd {
			values[d.Name] = append(values[d.Name], line.Metrics[d.Name].Value)
			fmt.Fprintf(w, " %s=%.6g", d.Name, line.Metrics[d.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s %12s %10s %16s %8s\n", "metric", "median", "IQR/median", "(max-min)/median", "bound")
	for _, d := range endToEnd {
		vs := values[d.Name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		lo, hi := minMax(vs)
		fmt.Fprintf(w, "%-14s %12.6g %9.2f%% %15.2f%% %7.1f%%\n", d.Name, med,
			100*(q3-q1)/med, 100*(hi-lo)/med, 100*d.Bound)
	}
	return nil
}

func main() {
	var cfg config
	var trace, reps int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: mid16-panspr, mid16-spr, full16-panuf or svc-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the order ops are issued in")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "seconds of timed work to measure")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "test size: quick-scale kernels on 8x8, 200 service ops, one pass")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for traces and the service's cache and journal")
	flag.IntVar(&reps, "repeat", 0, "run the workload this many times (seed, seed+1, ...) and print the spread of each end-to-end metric")
	flag.Parse()
	cfg.trace = trace != 0
	log.SetOutput(io.Discard) // the in-process server's operator log is not benchmark output

	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	spec, err := loadSpec(specFile)
	die(err)
	if reps > 0 {
		die(repeat(cfg, spec.EndToEnd, reps, os.Stdout))
		return
	}
	rep, err := run(context.Background(), cfg)
	die(err)
	defs := spec.EndToEnd
	if cfg.trace {
		defs = spec.PerLayer
	}
	die(rep.print(os.Stdout, defs))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

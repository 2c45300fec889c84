// Command panorama maps a benchmark kernel (or a DFG from a JSON file)
// onto a CGRA with a selectable mapper and prints the result, including
// an ASCII view of the cluster mapping and the time-extended schedule.
//
// Usage:
//
//	panorama -kernel fir -scale 0.25 -arch 8x8 -mapper pan-spr -show-schedule
//	panorama -dfg mygraph.json -arch 16x16 -mapper spr
//	panorama -kernel fir -verify -report -out fir.json
//
// The artifact flags (-show-schedule, -verify, -report, -out) work with
// every mapper whose result carries routes; UltraFast*'s crossbar-model
// placements have none and are refused with an error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"panorama/internal/arch"
	"panorama/internal/config"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/failure"
	"panorama/internal/kernels"
	"panorama/internal/obs"
	"panorama/internal/service"
	"panorama/internal/sim"
	"panorama/internal/spr"
	"panorama/internal/viz"
)

func main() {
	os.Exit(run())
}

// run is the whole program behind an exit code, so the deferred
// profile and trace flushes always happen before the process exits.
func run() int {
	var (
		kernelName = flag.String("kernel", "fir", "benchmark kernel name (see -list)")
		dfgFile    = flag.String("dfg", "", "JSON DFG file (overrides -kernel)")
		scale      = flag.Float64("scale", 0.25, "kernel scale factor (1.0 = paper size)")
		archName   = flag.String("arch", "8x8", "target CGRA: 4x4, 8x8, 9x9, 16x16")
		archFile   = flag.String("arch-file", "", "JSON architecture description (overrides -arch)")
		mapper     = flag.String("mapper", "pan-spr", "mapper, one of "+strings.Join(core.MapperNames(), ", ")+": a bare name is a baseline run, pan- the guided pipeline around the same lowerer")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("j", 0, "pipeline worker pool size (0 = one per CPU, 1 = serial); pan mappers only")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole mapping, e.g. 30s (0 = unbounded); on expiry the best partial result and the exhausted stage are reported")
		cacheDir   = flag.String("cache-dir", "", "persistent result cache directory shared with panoramad; repeated invocations of the same kernel/arch/config are served from it (bypassed when -show-schedule, -verify, -report or -out ask for artifacts: summaries are cached, mappings are not)")
		list       = flag.Bool("list", false, "list benchmark kernels and exit")
		showSched  = flag.Bool("show-schedule", false, "print the time-extended schedule (routed mappings: every mapper but ultrafast)")
		showClus   = flag.Bool("show-clusters", true, "print the cluster mapping grid (pan mappers)")
		verify     = flag.Bool("verify", false, "simulate the mapping and check it against the DFG reference (routed mappings)")
		outFile    = flag.String("out", "", "write the mapping and configuration program as JSON (routed mappings)")
		report     = flag.Bool("report", false, "print route/utilisation statistics (routed mappings)")
		traceOut   = flag.String("trace-out", "", "write the run's span tree as JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, s := range kernels.All() {
			g := s.Build(1.0)
			fmt.Printf("%-14s (%s) %d nodes / %d edges at scale 1.0\n", s.Name, s.Suite, g.NumNodes(), g.NumEdges())
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("panorama")
		defer writeTrace(tr, *traceOut)
	}

	g, err := loadDFG(*dfgFile, *kernelName, *scale)
	if err != nil {
		return fail(err)
	}
	a, err := pickArch(*archName, *archFile)
	if err != nil {
		return fail(err)
	}

	stats := g.ComputeStats()
	fmt.Printf("kernel %s: %d nodes, %d edges, max degree %d, RecMII %d\n",
		g.Name, stats.Nodes, stats.Edges, stats.MaxDegree, stats.RecMII)
	fmt.Printf("target %s, MII %d\n\n", a, a.MII(g))

	ctx := context.Background()
	if tr != nil {
		ctx = obs.WithSpan(ctx, tr.Root())
	}

	// The persistent cache is only consulted when the run needs no
	// mapping artifacts beyond the summary (routes, schedules and
	// programs are not cached).
	var cache *service.Cache
	var fp string
	if *cacheDir != "" && !*showSched && !*verify && !*report && *outFile == "" {
		var cerr error
		cache, cerr = service.NewCache(0, *cacheDir)
		if cerr != nil {
			return fail(cerr)
		}
		fp = service.Key(g, a, *mapper, *seed, core.Budgets{Total: *timeout})
		if e, ok := cache.Get(fp); ok {
			return reportCached(e.Summary)
		}
	}

	// Every name in core.MapperNames: "pan-<name>" runs the guided
	// pipeline, a bare name the unguided baseline, both under -timeout.
	start := time.Now()
	res, err := core.MapByName(ctx, g, a, *mapper, core.Config{Seed: *seed, RelaxOnFailure: true,
		Workers: *workers, Budgets: core.Budgets{Total: *timeout}})
	if err != nil {
		if res != nil {
			reportPartial(res, err, time.Since(start))
			return 2
		}
		return fail(err)
	}
	elapsed := time.Since(start)

	if cache != nil {
		// Clean runs — successful or provably unsuccessful — are
		// deterministic, so both are worth remembering.
		if cerr := cache.Put(service.Entry{Fingerprint: fp, Summary: res.Summarize()}); cerr != nil {
			fmt.Fprintln(os.Stderr, "panorama: cache:", cerr)
		}
	}

	if !res.Lower.Success {
		fmt.Printf("mapping FAILED (MII %d) after %v\n", res.Lower.MII, elapsed.Round(time.Millisecond))
		return 2
	}
	fmt.Printf("mapped at II=%d (MII %d, QoM %.2f) in %v\n",
		res.Lower.II, res.Lower.MII, res.Lower.QoM, elapsed.Round(time.Millisecond))
	if res.Partition != nil {
		fmt.Printf("clustering: K=%d, Inter-E=%d, Intra-E=%d, IF=%.2f (zeta=%d)\n",
			res.Partition.K, res.Partition.InterE, res.Partition.IntraE, res.Partition.IF, res.ClusterMap.Zeta1)
		if *showClus {
			fmt.Println("\ncluster mapping (CDG nodes per CGRA cluster):")
			fmt.Println(viz.ClusterGrid(res.ClusterMap))
		}
	}
	// The artifacts below are derived from the mapping's routes, so they
	// exist for every routed result, whichever mapper produced it; a
	// crossbar-model mapping (UltraFast*) is refused by each of them.
	m := res.Lower.Mapping
	if *showSched {
		sched, err := viz.TimeExtended(g, a, m)
		if err != nil {
			return fail(err)
		}
		fmt.Println("time-extended schedule:")
		fmt.Println(sched)
	}
	if *report {
		rep, err := spr.Analyze(g, a, m)
		if err != nil {
			return fail(err)
		}
		fmt.Println(rep)
	}
	if *verify {
		if err := sim.Verify(g, a, m, 4); err != nil {
			return fail(fmt.Errorf("simulation check failed: %w", err))
		}
		fmt.Println("simulation check: fabric output matches the DFG reference")
	}
	if *outFile != "" {
		prog, err := config.Generate(g, a, m)
		if err != nil {
			return fail(err)
		}
		out := struct {
			Kernel  string          `json:"kernel"`
			Arch    string          `json:"arch"`
			II      int             `json:"ii"`
			PlacePE []int           `json:"placePE"`
			PlaceT  []int           `json:"placeT"`
			Program *config.Program `json:"program"`
		}{g.Name, a.Name, m.II, m.PlacePE, m.PlaceT, prog}
		f, err := os.Create(*outFile)
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote mapping + configuration program to %s\n", *outFile)
	}
	return 0
}

// reportCached prints a result served from the persistent cache in the
// shape of a fresh run — nothing ran, so there is no time to report —
// and returns the process exit code.
func reportCached(s core.Summary) int {
	if !s.Success {
		fmt.Printf("cache hit: mapping FAILED (MII %d); served from the cache, nothing ran\n", s.MII)
		return 2
	}
	fmt.Printf("cache hit: mapped at II=%d (MII %d, QoM %.2f); served from the cache, nothing ran\n",
		s.II, s.MII, s.QoM)
	if s.PartitionK > 0 {
		fmt.Printf("clustering: K=%d (guidance: %s)\n", s.PartitionK, s.Guidance)
	}
	return 0
}

// reportPartial prints whatever the pipeline completed before a typed
// failure ended the run: the stage that exhausted the budget (or
// failed), per-stage wall times, and the best partial mapping.
func reportPartial(res *core.Result, err error, elapsed time.Duration) {
	switch {
	case res.Provenance.BudgetStage != "":
		fmt.Printf("budget exhausted in the %s stage after %v: %v\n",
			res.Provenance.BudgetStage, elapsed.Round(time.Millisecond), err)
	case failure.StageOf(err) != "":
		fmt.Printf("%s stage failed after %v: %v\n",
			failure.StageOf(err), elapsed.Round(time.Millisecond), err)
	default:
		fmt.Printf("mapping failed after %v: %v\n", elapsed.Round(time.Millisecond), err)
	}
	for _, s := range res.Provenance.Stages {
		note := ""
		if s.Note != "" {
			note = "  (" + s.Note + ")"
		}
		fmt.Printf("  %-12s %v%s\n", s.Stage, s.Wall.Round(time.Millisecond), note)
	}
	if res.Partition == nil {
		fmt.Println("no partial result survived")
		return
	}
	fmt.Printf("best partial: clustering K=%d, Inter-E=%d, Intra-E=%d, IF=%.2f\n",
		res.Partition.K, res.Partition.InterE, res.Partition.IntraE, res.Partition.IF)
	if res.ClusterMap != nil {
		fmt.Println("cluster mapping (CDG nodes per CGRA cluster):")
		fmt.Println(viz.ClusterGrid(res.ClusterMap))
	}
}

func loadDFG(file, kernel string, scale float64) (*dfg.Graph, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var g dfg.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
		return &g, nil
	}
	spec, err := kernels.ByName(kernel)
	if err != nil {
		return nil, err
	}
	return spec.Build(scale), nil
}

func pickArch(name, file string) (*arch.CGRA, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return arch.ReadJSON(f)
	}
	return arch.Preset(name)
}

// fail prints the error and returns the generic failure exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "panorama:", err)
	return 1
}

// writeTrace ends the trace's root span and writes the span tree as
// JSON; errors are reported but do not change the exit code (the
// mapping already succeeded or failed on its own terms).
func writeTrace(tr *obs.Trace, path string) {
	tr.Root().End()
	data, err := tr.JSON()
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "panorama: trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "panorama: wrote trace to %s\n", path)
}

// writeMemProfile captures an up-to-date heap profile.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "panorama: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialise the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "panorama: memprofile:", err)
	}
}

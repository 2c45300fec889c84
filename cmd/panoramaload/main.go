// Command panoramaload is an open-loop load generator for panoramad:
// it fires a target-qps stream of mixed single/batch/SSE mapping
// requests (with a linear ramp), drawn deterministically from the
// kernel suite and random dfgen DFGs, and writes a JSON report with
// p50/p95/p99 latency per operation class and an error taxonomy.
//
// With -procs N the process re-executes itself N times, splits the
// rate evenly, and merges the children's reports — an open-loop load
// source that does not serialize on one process's scheduler.
//
// With -fleet N it instead spawns N real panoramad processes wired
// into a consistent-hash ring on loopback (requires -daemon-bin or
// panoramad on PATH), drives every peer concurrently with the same
// deterministic stream — the worst case for cross-peer duplication —
// and asserts the fleet SLOs after the run: zero failed operations,
// no misdirected forwards, and at most one pipeline execution per
// distinct spec summed across all peers. The merged report lands in
// -out; a non-zero exit means an SLO was violated.
//
//	panoramaload -addr http://localhost:8080 -qps 50 -duration 30s \
//	    -ramp 5s -mix single=70,batch=20,sse=10 -warm 0.5 -out load.json
//
//	panoramaload -fleet 3 -daemon-bin ./bin/panoramad -qps 60 \
//	    -duration 10s -mapper ultrafast -scale 0.1 -dfg 0 -out fleet.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"panorama/internal/loadtest"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "base URL of the panoramad to load")
		qps       = flag.Float64("qps", 20, "steady-state operations per second (split across -procs)")
		duration  = flag.Duration("duration", 30*time.Second, "total run length, ramp included")
		ramp      = flag.Duration("ramp", 0, "linear ramp from 0 to the target rate")
		mixSpec   = flag.String("mix", "single=70,batch=20,sse=10", "operation mix weights")
		batchSize = flag.Int("batch-size", 4, "items per batch operation")
		warm      = flag.Float64("warm", 0.5, "probability an item repeats an earlier spec (cache-warm traffic)")
		dfgRatio  = flag.Float64("dfg", 0.25, "probability a cold item is an inline random DFG (0 disables)")
		kernelCSV = flag.String("kernels", "", "comma-separated kernel names (default: all)")
		scale     = flag.Float64("scale", 0.25, "kernel scale factor")
		archName  = flag.String("arch", "8x8", "architecture preset")
		mapper    = flag.String("mapper", "pan-spr", "mapper name")
		seed      = flag.Int64("seed", 1, "workload stream seed")
		timeoutMS = flag.Int64("timeout-ms", 0, "per-job budget override (0 = server default)")
		procs     = flag.Int("procs", 1, "generator processes (re-exec fan-out)")
		out       = flag.String("out", "panoramaload.json", "report output path")
		fleetN    = flag.Int("fleet", 0, "spawn an N-peer panoramad ring on loopback, load every peer, and assert the fleet SLOs (0 = load -addr directly)")
		daemonBin = flag.String("daemon-bin", "", "panoramad binary for -fleet (default: panoramad on PATH)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *fleetN > 0 {
		if err := runFleet(ctx, *fleetN, *daemonBin, *qps, *seed, *out); err != nil {
			log.Fatalf("panoramaload: %v", err)
		}
		return
	}

	if *procs > 1 {
		if err := runParent(ctx, *procs, *qps, *seed, *out); err != nil {
			log.Fatalf("panoramaload: %v", err)
		}
		return
	}

	mix, err := loadtest.ParseMix(*mixSpec)
	if err != nil {
		log.Fatalf("panoramaload: %v", err)
	}
	var kernelList []string
	if *kernelCSV != "" {
		kernelList = strings.Split(*kernelCSV, ",")
	}
	dfg := *dfgRatio
	if dfg == 0 {
		dfg = -1 // flag 0 means "no inline DFGs", not the library default
	}
	wl, err := loadtest.NewWorkload(loadtest.WorkloadConfig{
		Seed:      *seed,
		Mix:       mix,
		Kernels:   kernelList,
		Scale:     *scale,
		Arch:      *archName,
		Mapper:    *mapper,
		WarmRatio: *warm,
		BatchSize: *batchSize,
		DFGRatio:  dfg,
		TimeoutMS: *timeoutMS,
	})
	if err != nil {
		log.Fatalf("panoramaload: %v", err)
	}
	report, err := loadtest.Run(ctx, loadtest.RunConfig{
		BaseURL:  strings.TrimRight(*addr, "/"),
		QPS:      *qps,
		Duration: *duration,
		Ramp:     *ramp,
		Workload: wl,
	})
	if err != nil && report == nil {
		log.Fatalf("panoramaload: %v", err)
	}
	if err := report.WriteFile(*out); err != nil {
		log.Fatalf("panoramaload: %v", err)
	}
	printSummary(report)
}

// runParent re-executes this binary procs times with the rate split
// evenly and distinct workload seeds, then merges the children's
// reports into -out.
func runParent(ctx context.Context, procs int, qps float64, seed int64, out string) error {
	dir, err := os.MkdirTemp("", "panoramaload-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Forward every explicitly-set flag except the ones the parent
	// rewrites per child.
	rewritten := map[string]bool{"procs": true, "out": true, "qps": true, "seed": true}
	var common []string
	flag.Visit(func(f *flag.Flag) {
		if !rewritten[f.Name] {
			common = append(common, "-"+f.Name+"="+f.Value.String())
		}
	})

	outs := make([]string, procs)
	cmds := make([]*exec.Cmd, procs)
	for i := 0; i < procs; i++ {
		outs[i] = filepath.Join(dir, fmt.Sprintf("child-%d.json", i))
		args := append([]string{
			"-procs=1",
			fmt.Sprintf("-qps=%g", qps/float64(procs)),
			fmt.Sprintf("-seed=%d", seed+int64(i)*7919),
			"-out=" + outs[i],
		}, common...)
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("child %d: %w", i, err)
		}
		cmds[i] = cmd
	}
	var firstErr error
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("child %d: %w", i, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}

	merged, err := loadtest.ReadReport(outs[0])
	if err != nil {
		return err
	}
	for _, path := range outs[1:] {
		child, err := loadtest.ReadReport(path)
		if err != nil {
			return err
		}
		if err := merged.Merge(child); err != nil {
			return err
		}
	}
	if err := merged.WriteFile(out); err != nil {
		return err
	}
	printSummary(merged)
	return nil
}

// runFleet spawns n panoramad peers wired into one consistent-hash
// ring on loopback ports, re-executes this binary once per peer with
// the SAME workload seed (identical streams maximize cross-peer
// duplication), merges the reports, scrapes every peer's /metricsz, and
// asserts the fleet SLOs: zero failures, zero misdirected forwards,
// and — since every stream is identical — no more fleet-wide pipeline
// executions than one stream's distinct specs.
func runFleet(ctx context.Context, n int, bin string, qps float64, seed int64, out string) error {
	if n < 2 {
		return fmt.Errorf("-fleet needs at least 2 peers, got %d", n)
	}
	if bin == "" {
		var err error
		if bin, err = exec.LookPath("panoramad"); err != nil {
			return fmt.Errorf("-fleet needs panoramad: %w (build it and pass -daemon-bin)", err)
		}
	}
	dir, err := os.MkdirTemp("", "panoramaload-fleet-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Reserve n loopback ports. The tiny close-to-bind window is fine
	// for a load harness.
	addrs := make([]string, n)
	urls := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
		ln.Close()
	}

	daemons := make([]*exec.Cmd, n)
	stopDaemons := func() {
		for _, d := range daemons {
			if d != nil && d.Process != nil {
				d.Process.Signal(syscall.SIGTERM)
			}
		}
		for i, d := range daemons {
			if d == nil {
				continue
			}
			done := make(chan struct{})
			go func(d *exec.Cmd) { d.Wait(); close(done) }(d)
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				log.Printf("panoramaload: peer %d did not drain; killing", i)
				d.Process.Kill()
				<-done
			}
		}
	}
	defer stopDaemons()
	for i := range daemons {
		d := exec.CommandContext(ctx, bin,
			"-addr", addrs[i],
			"-self", urls[i],
			"-peers", strings.Join(urls, ","),
			"-gossip", "250ms",
			"-workers", "4",
			"-queue", "1024",
			"-cache-size", "8192",
		)
		d.Stdout = os.Stderr
		d.Stderr = os.Stderr
		if err := d.Start(); err != nil {
			return fmt.Errorf("peer %d: %w", i, err)
		}
		daemons[i] = d
	}
	for i, u := range urls {
		if err := waitHealthy(ctx, u, 15*time.Second); err != nil {
			return fmt.Errorf("peer %d (%s): %w", i, u, err)
		}
	}
	log.Printf("panoramaload: %d-peer ring up: %s", n, strings.Join(urls, " "))

	// One generator child per peer, rate split, same seed everywhere.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rewritten := map[string]bool{"fleet": true, "daemon-bin": true, "procs": true,
		"out": true, "qps": true, "seed": true, "addr": true}
	var common []string
	flag.Visit(func(f *flag.Flag) {
		if !rewritten[f.Name] {
			common = append(common, "-"+f.Name+"="+f.Value.String())
		}
	})
	outs := make([]string, n)
	children := make([]*exec.Cmd, n)
	for i := range children {
		outs[i] = filepath.Join(dir, fmt.Sprintf("fleet-child-%d.json", i))
		args := append([]string{
			"-procs=1", "-fleet=0",
			"-addr=" + urls[i],
			fmt.Sprintf("-qps=%g", qps/float64(n)),
			fmt.Sprintf("-seed=%d", seed),
			"-out=" + outs[i],
		}, common...)
		c := exec.CommandContext(ctx, self, args...)
		c.Stdout = os.Stdout
		c.Stderr = os.Stderr
		if err := c.Start(); err != nil {
			return fmt.Errorf("generator %d: %w", i, err)
		}
		children[i] = c
	}
	var firstErr error
	for i, c := range children {
		if err := c.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("generator %d: %w", i, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}

	// Merge the reports, bounding executions with the max distinct
	// count (the streams are identical, so Merge's sum would treble it).
	merged, err := loadtest.ReadReport(outs[0])
	if err != nil {
		return err
	}
	maxDistinct := merged.DistinctSpecs
	for _, path := range outs[1:] {
		child, err := loadtest.ReadReport(path)
		if err != nil {
			return err
		}
		if child.DistinctSpecs > maxDistinct {
			maxDistinct = child.DistinctSpecs
		}
		if err := merged.Merge(child); err != nil {
			return err
		}
	}
	merged.DistinctSpecs = maxDistinct
	if err := merged.WriteFile(out); err != nil {
		return err
	}
	printSummary(merged)

	// Scrape every peer's view of the run before draining them.
	fc, err := loadtest.ScrapeFleet(ctx, urls)
	if err != nil {
		return err
	}
	fmt.Printf("  fleet:  peers=%d executed=%d distinct=%d forwarded=%d fallback=%d misdirected=%d\n",
		n, fc.Executed, maxDistinct, fc.Forwarded, fc.Fallback, fc.Misdirected)

	var violations []string
	if merged.Failed > 0 {
		violations = append(violations, fmt.Sprintf("%d failed operation(s): %v", merged.Failed, merged.Errors))
	}
	if fc.Misdirected > 0 {
		violations = append(violations, fmt.Sprintf("%d misdirected forward(s): ring views disagree", fc.Misdirected))
	}
	if fc.Forwarded == 0 {
		violations = append(violations, "no operation was forwarded: the ring was not exercised")
	}
	if merged.Failed == 0 && fc.Executed > maxDistinct {
		// Only a zero-failure run supports the exactly-once bound:
		// legitimate retries of failing specs re-execute.
		violations = append(violations,
			fmt.Sprintf("executed %d pipelines for %d distinct specs: duplicate work across the ring", fc.Executed, maxDistinct))
	}
	if len(violations) > 0 {
		return fmt.Errorf("fleet SLO violated:\n  %s", strings.Join(violations, "\n  "))
	}
	log.Printf("panoramaload: fleet SLOs held")
	return nil
}

// waitHealthy polls url/healthz until it answers 200.
func waitHealthy(ctx context.Context, url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after %v: %v", budget, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func printSummary(r *loadtest.Report) {
	fmt.Printf("panoramaload: %d sent, %d ok, %d failed, %.1f qps achieved (target %.1f)\n",
		r.Sent, r.Done, r.Failed, r.AchievedQPS, r.TargetQPS)
	for _, name := range r.ClassNames() {
		c := r.Classes[name]
		fmt.Printf("  %-7s n=%-6d p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n",
			name, c.Count, c.P50MS, c.P95MS, c.P99MS, c.MaxMS)
	}
	if len(r.Errors) > 0 {
		fmt.Printf("  errors: %v\n", r.Errors)
	}
}

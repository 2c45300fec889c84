package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/obs"
	"panorama/internal/verify"
)

const (
	warmupArch  = "8x8"
	warmupScale = 0.25
	// setup_s is the median of this many set-ups: a compile set-up is
	// a few hundred milliseconds of CPU, which the box's bursts move by
	// a quarter.
	compileSetups = 5
)

func archPreset(name string) (*arch.CGRA, error) {
	switch name {
	case "8x8":
		return arch.Preset8x8(), nil
	case "16x16":
		return arch.Preset16x16(), nil
	}
	return nil, fmt.Errorf("benchmark: unknown architecture %q", name)
}

// splitMapper reads a service-style mapper name: "pan-spr" is the
// guided pipeline over SPR*, bare "spr" the unguided baseline.
func splitMapper(name string) (bare string, guided bool) {
	if b, ok := strings.CutPrefix(name, "pan-"); ok {
		return b, true
	}
	return name, false
}

// mapOnce is one mapping request answered in process, configured
// exactly as panoramad's executor configures it (serial pipeline,
// relax-on-failure), so a service response can be compared against it.
func mapOnce(ctx context.Context, g *dfg.Graph, a *arch.CGRA, mapper string, seed int64) (*core.Result, error) {
	bare, guided := splitMapper(mapper)
	lower, err := core.NewLowerByName(bare, seed)
	if err != nil {
		return nil, err
	}
	if guided {
		return core.MapPanoramaCtx(ctx, g, a, lower, core.Config{Seed: seed, RelaxOnFailure: true, Workers: 1})
	}
	return core.MapBaselineCtx(ctx, g, a, lower)
}

func buildKernel(name string, scale float64) (*dfg.Graph, error) {
	spec, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	g := spec.Build(scale)
	return g, g.Freeze()
}

// compileEnv is a set-up compile workload, ready for timed passes.
type compileEnv struct {
	spec   compileSpec
	arch   *arch.CGRA
	graphs map[string]*dfg.Graph

	archBuild, kernelBuild time.Duration
}

// setupCompile does everything between workload start and the first
// timed op: build the fabric and the kernels, then the fixed warm-up.
func setupCompile(ctx context.Context, spec compileSpec) (*compileEnv, error) {
	env := &compileEnv{spec: spec, graphs: make(map[string]*dfg.Graph)}
	t0 := time.Now()
	a, err := archPreset(spec.Arch)
	if err != nil {
		return nil, err
	}
	env.arch, env.archBuild = a, time.Since(t0)
	t0 = time.Now()
	for _, k := range spec.Kernels {
		if env.graphs[k], err = buildKernel(k, spec.Scale); err != nil {
			return nil, err
		}
	}
	env.kernelBuild = time.Since(t0)

	wa, err := archPreset(warmupArch)
	if err != nil {
		return nil, err
	}
	for round := 0; round < spec.Warmups; round++ {
		for _, k := range spec.Kernels {
			g, err := buildKernel(k, warmupScale)
			if err != nil {
				return nil, err
			}
			if _, err := mapOnce(ctx, g, wa, spec.Mapper, mapperSeed); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", k, err)
			}
		}
	}
	return env, nil
}

// compileAnswer is one answered op.
type compileAnswer struct {
	Kernel string
	Wall   time.Duration
	Res    *core.Result
	Hash   string // mapping hash, "" when the op failed
}

// compilePass is one pass over the op list.
type compilePass struct {
	Wall    time.Duration // sum of the ops' timed regions
	Answers []compileAnswer
	Counts  map[string]float64 // obs counter deltas over the pass
	Failed  int
}

// guidance rebuilds the cluster restriction the pipeline's winning
// rung mapped under, so verify.Check also holds the mapping to it.
func guidance(g *dfg.Graph, a *arch.CGRA, res *core.Result) [][]int {
	if res.FellBack || res.Partition == nil || res.ClusterMap == nil {
		return nil
	}
	allowed := core.AllowedClusters(g, a, res.Partition, res.ClusterMap)
	if res.Relaxed {
		allowed = relaxMemOps(g, allowed)
	}
	return allowed
}

// relaxMemOps frees the memory operations from the restriction, as
// the pipeline's "relaxed" rung does.
func relaxMemOps(g *dfg.Graph, allowed [][]int) [][]int {
	out := append([][]int(nil), allowed...)
	for v, nd := range g.Nodes {
		if nd.Op.IsMem() {
			out[v] = nil
		}
	}
	return out
}

// mappingHash is the content address of a mapping: II, placement and
// routes. Equal hashes across passes are the determinism self-check.
func mappingHash(m *verify.Mapping) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(m.II))
	for i := range m.PlacePE {
		put(int64(m.PlacePE[i]))
		put(int64(m.PlaceT[i]))
	}
	for _, route := range m.Routes {
		put(int64(len(route)))
		for _, n := range route {
			put(int64(n))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// runPass answers ops once. Only the core.Map*Ctx call of each op is
// timed; the legality check and the bookkeeping around it are not.
func (e *compileEnv) runPass(ctx context.Context, ops []string, rec *recorder, opBase int, rep *report) compilePass {
	p := compilePass{}
	before := obs.Default.Snapshot()
	for i, k := range ops {
		g := e.graphs[k]
		runtime.GC() // untimed: every op starts from a collected heap, whatever ran before it
		root := rec.start(-1, opBase+i, "op "+k)
		call := rec.start(root, opBase+i, "core.Map")
		t0 := time.Now()
		res, err := mapOnce(ctx, g, e.arch, e.spec.Mapper, mapperSeed)
		wall := time.Since(t0)
		rec.end(call)
		rec.end(root)
		ans := compileAnswer{Kernel: k, Wall: wall, Res: res}
		switch {
		case err != nil:
			rep.fail("%s: %v", k, err)
		case !res.Lower.Success || res.Lower.Mapping == nil:
			rep.fail("%s: no mapping found", k)
		default:
			if verr := verify.Check(g, e.arch, res.Lower.Mapping, guidance(g, e.arch, res)); verr != nil {
				rep.fail("%s: illegal mapping: %v", k, verr)
			} else {
				ans.Hash = mappingHash(res.Lower.Mapping)
			}
		}
		if ans.Hash == "" {
			p.Failed++
		}
		p.Wall += wall
		p.Answers = append(p.Answers, ans)
	}
	p.Counts = countDelta(before, obs.Default.Snapshot())
	return p
}

// signature is what must be identical from pass to pass: every
// kernel's II, MII, guidance and mapping hash, and every counter.
func (p compilePass) signature() string {
	rows := make([]string, 0, len(p.Answers))
	for _, a := range p.Answers {
		if a.Hash == "" {
			rows = append(rows, a.Kernel+":failed")
			continue
		}
		rows = append(rows, fmt.Sprintf("%s:ii=%d,mii=%d,%s,%s", a.Kernel,
			a.Res.Lower.II, a.Res.Lower.MII, a.Res.GuidanceLabel(), a.Hash))
	}
	sort.Strings(rows)
	return strings.Join(rows, " ") + " | " + signature(p.Counts)
}

func (p compilePass) qom() qomTally {
	q := qomTally{}
	for _, a := range p.Answers {
		if a.Hash != "" {
			q.add(a.Res.Lower.MII, a.Res.Lower.II)
		}
	}
	return q
}

// passTally folds a run's timed passes into the end-to-end metrics.
type passTally struct {
	wallS, rate []float64 // per pass: wall, answered ops per second
	latMS       []float64 // per timed op, all passes
	total       time.Duration
}

// add records one pass: its wall time, its ops' latencies, and how
// many of them were answered correctly.
func (t *passTally) add(wall time.Duration, latMS []float64, answered int) {
	t.wallS = append(t.wallS, wall.Seconds())
	t.rate = append(t.rate, float64(answered)/wall.Seconds())
	t.latMS = append(t.latMS, latMS...)
	t.total += wall
}

// fill writes the six end-to-end metrics.
func (t *passTally) fill(rep *report, setupS []float64, qom qomTally, heapMB float64) {
	rep.Values["setup_s"] = median(setupS)
	rep.Values["compile_s"] = median(t.wallS)
	rep.Values["ops_per_s"] = median(t.rate)
	rep.Values["op_p50_ms"] = median(t.latMS)
	rep.Values["qom_geomean"] = qom.geomean()
	rep.Values["peak_heap_mb"] = heapMB
}

// heapWatch polls the collector's live-heap figure (the bytes the last
// GC cycle found reachable) and keeps the largest it sees. Unlike
// MemStats.HeapSys, which moves in 4 MiB steps with the timing of the
// concurrent collector (31.7 to 43.7 across ten identical mid16-spr
// runs), the largest live heap is a property of the program's working
// set. It watches the first timed pass only: every run has one, so the
// reading is taken over the same work however many passes fit the run,
// which matters on svc-mix, where the daemon keeps every finished job
// and the heap grows with the work done. It never starts a collection
// while an op is being timed.
type heapWatch struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

const (
	heapPoll = 5 * time.Millisecond
	// heapFloorMB is the resolution of peak_heap_mb. The figure moves
	// only when a cycle ends, and a heap this small runs few: which of
	// its plateaus a cycle happens to land on decides the reading
	// (full16-panuf: 4.1 to 7.6 across ten identical runs), so smaller
	// readings are reported as the floor.
	heapFloorMB = 8
)

func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			w.peak = max(w.peak, liveHeap())
			select {
			case <-w.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stop ends the polling and returns the peak in MiB. It is called
// after the pass, outside timing, and runs one collection itself so
// that the heap the pass left behind is seen too.
func (w *heapWatch) stop() float64 {
	close(w.stopc)
	<-w.done
	runtime.GC()
	return max(heapFloorMB, float64(max(w.peak, liveHeap()))/(1<<20))
}

// passLoop is the bookkeeping shared by the workloads' timed passes:
// the heap watch over the first, and the host-noise probes between
// them.
type passLoop struct {
	host   *hostNoise
	heap   *heapWatch
	heapMB float64 // peak_heap_mb, once the first pass is over
}

func newPassLoop(cfg config) *passLoop {
	return &passLoop{host: newHostNoise(cfg), heap: startHeapWatch()}
}

// after runs, untimed, after every pass.
func (l *passLoop) after() error {
	if l.heap != nil {
		l.heapMB, l.heap = l.heap.stop(), nil
	}
	return l.host.sample()
}

// finish prints the host-noise line and removes the probe file.
func (l *passLoop) finish(rep *report) {
	l.host.note(rep)
	l.host.close()
}

// timedPasses runs pass after pass until budget worth of timed work
// is done, stopping once another half pass would overrun it (so a run
// measures budget ± half a pass). after runs untimed after each pass.
// A zero budget means exactly one pass.
func timedPasses(budget time.Duration, pass func(i int) time.Duration, after func() error) ([]time.Duration, error) {
	var walls []time.Duration
	var spent time.Duration
	for i := 0; ; i++ {
		w := pass(i)
		walls = append(walls, w)
		spent += w
		if err := after(); err != nil {
			return walls, err
		}
		if spent+w/2 >= budget {
			return walls, nil
		}
	}
}

// runCompile measures one compile workload end to end (tracing off).
func runCompile(ctx context.Context, cfg config, spec compileSpec) (*report, error) {
	rep := &report{Correct: true, Values: map[string]float64{}}
	ops := compileOps(cfg.seed, spec.Kernels)
	t0 := time.Now()
	env, err := setupCompile(ctx, spec)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	loop := newPassLoop(cfg)
	defer loop.finish(rep)

	var passes []compilePass
	walls, err := timedPasses(cfg.budget(), func(i int) time.Duration {
		p := env.runPass(ctx, ops, nil, i*len(ops), rep)
		passes = append(passes, p)
		return p.Wall
	}, loop.after)
	if err != nil {
		return nil, err
	}
	// setup_s is the median of several set-ups; the others are made
	// now, after the timed passes.
	for len(setups) < cfg.setupRepeats(compileSetups) {
		runtime.GC()
		t0 := time.Now()
		if _, err := setupCompile(ctx, spec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tally passTally
	first := passes[0].signature()
	for i, p := range passes {
		rep.Attempted += len(p.Answers)
		rep.Failed += p.Failed
		var lat []float64
		for _, a := range p.Answers {
			lat = append(lat, millis(a.Wall))
		}
		tally.add(walls[i], lat, len(p.Answers)-p.Failed)
		if sig := p.signature(); sig != first {
			rep.fail("pass %d differs from pass 0:\n  %s\n  %s", i, sig, first)
		}
	}
	tally.fill(rep, setups, passes[0].qom(), loop.heapMB)
	rep.notef("%s seed %d: %d passes of %d ops, %d latency samples, %.1f s timed; op order %v; pass walls (s) %.3f; set-ups (s) %.3f",
		cfg.workload, cfg.seed, len(passes), len(ops), len(tally.latMS), tally.total.Seconds(), ops, tally.wallS, setups)
	for i, a := range passes[0].Answers {
		if a.Hash == "" {
			continue
		}
		var walls []float64 // this op's, pass by pass
		for _, p := range passes {
			walls = append(walls, p.Answers[i].Wall.Seconds())
		}
		rep.notef("  %-12s II %d (MII %d), map %s, walls (s) %.3f", a.Kernel, a.Res.Lower.II, a.Res.Lower.MII, a.Hash, walls)
	}
	return rep, nil
}

package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"panorama/internal/arch"
	"panorama/internal/clustermap"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
	"panorama/internal/spectral"
	"panorama/internal/verify"
)

// Span names of the staged replay. Each is one public call into a
// layer; the per-layer time metrics are sums over spans of one name.
const (
	spanLaplacian  = "spectral.Laplacian"
	spanEmbed      = "spectral.NewEmbedder"
	spanSweep      = "spectral.SweepCtx"
	spanTop        = "spectral.TopBalanced"
	spanCDG        = "spectral.BuildCDG"
	spanClusterMap = "clustermap.MapWithEscalationCtx"
	spanAllowed    = "core.AllowedClusters"
	spanLower      = "core.Lower.Map"
	spanVerify     = "verify.Check"
	spanMRRG       = "mrrg.New"
)

// replayStages are the spans that together redo what one
// core.MapPanoramaCtx call does (verify.Check and the probes are
// extra); their sum is compared against the real pipeline's wall.
var replayStages = []string{spanSweep, spanTop, spanCDG, spanClusterMap, spanAllowed, spanLower}

// replayOut is what the staged replay of one op found.
type replayOut struct {
	Partitions int // partitions the sweep produced
	InterEdges int // DFG edges crossing clusters in the chosen partition
	Zeta       int // ζ1+ζ2 of the chosen cluster mapping
	MRRGEdges  int // edges of the MRRG at the achieved II
}

// better orders cluster mappings as the pipeline does: composite
// score first, then the smaller ζ sum.
func better(a, b *clustermap.Result) bool {
	if a.Score() != b.Score() {
		return a.Score() < b.Score()
	}
	return a.Zeta1+a.Zeta2 < b.Zeta1+b.Zeta2
}

// replayOp redoes one answered op stage by stage through the layers'
// public functions, with a span around each call, and checks that it
// lands on the same partition, cluster mapping and mapping as the
// real pipeline did.
func replayOp(ctx context.Context, rec *recorder, op int, g *dfg.Graph, a *arch.CGRA, mapper string, real *core.Result) (replayOut, error) {
	var out replayOut
	root := rec.start(-1, op, "replay "+g.Name)
	defer rec.end(root)
	timed := func(name string, fn func()) {
		id := rec.start(root, op, name)
		fn()
		rec.end(id)
	}
	bare, guided := splitMapper(mapper)
	lower, err := core.NewLowerByName(bare, mapperSeed)
	if err != nil {
		return out, err
	}

	var allowed [][]int
	var rungs [][][]int
	if guided {
		// What the sweep pays once per graph, measured on its own.
		timed(spanLaplacian, func() { spectral.Laplacian(g) })
		timed(spanEmbed, func() { _, err = spectral.NewEmbedder(g) })
		if err != nil {
			return out, err
		}

		r, c := a.ClusterRows, a.ClusterCols
		var parts []*spectral.Partition
		timed(spanSweep, func() {
			parts, _, err = spectral.SweepCtx(ctx, g, r, core.DefaultMaxClusters(g, a), mapperSeed, 1)
		})
		if err != nil {
			return out, err
		}
		out.Partitions = len(parts)
		var top []*spectral.Partition
		timed(spanTop, func() {
			var usable []*spectral.Partition
			for _, p := range parts {
				if p.K >= r {
					usable = append(usable, p)
				}
			}
			top = spectral.TopBalanced(usable, 3)
		})

		mii := a.MII(g)
		opts := clustermap.Options{
			NodeCapacity: a.NumPEs() / a.NumClusters() * (mii + 1),
			MemCapacity:  len(a.MemPEs()) / a.NumClusters() * (mii + 1),
		}
		var best *clustermap.Result
		var bestPart *spectral.Partition
		for _, p := range top {
			var cdg *spectral.CDG
			timed(spanCDG, func() { cdg = spectral.BuildCDG(g, p) })
			var cm *clustermap.Result
			var cerr error
			timed(spanClusterMap, func() {
				cm, cerr = clustermap.MapWithEscalationCtx(ctx, cdg, r, c, opts)
				if cerr != nil {
					// As the pipeline does: retry a lumpy candidate
					// without the capacity bounds before dropping it.
					cm, cerr = clustermap.MapWithEscalationCtx(ctx, cdg, r, c, clustermap.Options{})
				}
			})
			if cerr == nil && (best == nil || better(cm, best)) {
				best, bestPart = cm, p
			}
		}
		if best == nil {
			return out, fmt.Errorf("replay %s: no candidate partition cluster-mapped", g.Name)
		}
		out.InterEdges, out.Zeta = bestPart.InterE, best.Zeta1+best.Zeta2
		if real.Partition == nil || real.ClusterMap == nil ||
			!reflect.DeepEqual(bestPart.Assign, real.Partition.Assign) ||
			!reflect.DeepEqual(best.Rows, real.ClusterMap.Rows) ||
			!reflect.DeepEqual(best.Cols, real.ClusterMap.Cols) {
			return out, fmt.Errorf("replay %s: partition or cluster mapping differs from the pipeline's", g.Name)
		}

		timed(spanAllowed, func() { allowed = core.AllowedClusters(g, a, bestPart, best) })
		// The pipeline's ladder: guided (memory ops pre-emptively
		// freed under bank pressure), memory ops freed, unguided.
		first := allowed
		if real.Relaxed && lowerNote(real) == "guided" {
			first = relaxMemOps(g, allowed)
		}
		rungs = [][][]int{first, relaxMemOps(g, allowed), nil}
	} else {
		rungs = [][][]int{nil}
	}

	var low core.LowerResult
	var used [][]int
	for _, rung := range rungs {
		timed(spanLower, func() { low, err = lower.Map(ctx, g, a, rung) })
		if err != nil {
			return out, err
		}
		if low.Success {
			used = rung
			break
		}
	}
	if !low.Success || low.Mapping == nil {
		return out, fmt.Errorf("replay %s: lower mapper found no mapping", g.Name)
	}
	timed(spanVerify, func() { err = verify.Check(g, a, low.Mapping, used) })
	if err != nil {
		return out, fmt.Errorf("replay %s: %w", g.Name, err)
	}
	if got, want := mappingHash(low.Mapping), mappingHash(real.Lower.Mapping); got != want {
		return out, fmt.Errorf("replay %s: mapping %s differs from the pipeline's %s", g.Name, got, want)
	}
	var mg *mrrg.Graph
	timed(spanMRRG, func() { mg, err = mrrg.New(a, low.II) })
	if err != nil {
		return out, err
	}
	out.MRRGEdges = mg.NumEdges()
	return out, nil
}

// lowerNote is the rung the pipeline's lower stage settled on.
func lowerNote(res *core.Result) string {
	for _, st := range res.Provenance.Stages {
		if st.Stage == "lower" {
			return st.Note
		}
	}
	return ""
}

// graphProbes times the representation layers on the workload's own
// graphs: content fingerprint and binary codec round trip, mean per
// call in microseconds.
func graphProbes(graphs []*dfg.Graph) (fingerprintUS, codecUS float64, err error) {
	const rounds = 20
	var fp, codec time.Duration
	n := 0
	for _, g := range graphs {
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			_ = g.Fingerprint()
			fp += time.Since(t0)
			t0 = time.Now()
			data, merr := g.MarshalBinary()
			if merr != nil {
				return 0, 0, merr
			}
			var back dfg.Graph
			if uerr := back.UnmarshalBinary(data); uerr != nil {
				return 0, 0, uerr
			}
			codec += time.Since(t0)
			n++
		}
	}
	return micros(fp) / float64(n), micros(codec) / float64(n), nil
}

// hostRuntimeValues fills the host and runtime rows every traced run
// reports: the probes' medians, the traced pass against the untraced
// one, and what the runtime did over the traced pass (m0 before it,
// m1 after).
func hostRuntimeValues(v map[string]float64, host *hostNoise, ref, traced time.Duration, m0, m1 *runtime.MemStats) {
	v["host.ruler_ms"] = median(host.rulerMS)
	v["host.fsync_us"] = median(host.fsyncUS)
	v["trace.overhead_frac"] = (traced.Seconds() - ref.Seconds()) / ref.Seconds()
	v["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// traceCompile is the traced run of a compile workload: one untraced
// reference pass, one traced pass, then the staged replay and the
// layer probes. It reports every per-layer metric.
func traceCompile(ctx context.Context, cfg config, spec compileSpec) (*report, error) {
	rep := &report{Correct: true, Values: map[string]float64{}}
	v := rep.Values
	ops := compileOps(cfg.seed, spec.Kernels)
	host := newHostNoise(cfg)
	defer host.close()
	env, err := setupCompile(ctx, spec)
	if err != nil {
		return nil, err
	}

	ref := env.runPass(ctx, ops, nil, 0, rep)
	if err := host.sample(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := env.runPass(ctx, ops, rec, 0, rep)
	runtime.ReadMemStats(&m1)
	if err := host.sample(); err != nil {
		return nil, err
	}
	rep.Attempted = len(ref.Answers) + len(traced.Answers)
	rep.Failed = ref.Failed + traced.Failed
	if ref.signature() != traced.signature() {
		rep.fail("traced pass differs from the untraced one:\n  %s\n  %s", traced.signature(), ref.signature())
	}

	hostRuntimeValues(v, host, ref.Wall, traced.Wall, &m0, &m1)
	v["kernels.build_ms"] = millis(env.kernelBuild)
	v["arch.build_ms"] = millis(env.archBuild)

	c := traced.Counts
	v["clustermap.attempts"] = sumPrefix(c, "panorama_clustermap_attempts_total")
	v["clustermap.greedy_rows"] = c["panorama_clustermap_greedy_rows_total"]
	v["ilp.solves"] = sumPrefix(c, "panorama_ilp_solves_total")
	v["ilp.nodes"] = c["panorama_ilp_nodes_total"]
	v["ilp.incumbent_solves"] = c["panorama_ilp_incumbent_solves_total"]
	v["spr.attempts"] = c["panorama_spr_attempts_total"]
	v["spr.pf_iters"] = c["panorama_spr_pathfinder_iterations_total"]
	v["spr.ripups"] = c["panorama_spr_ripups_total"]
	v["spr.sa_moves"] = c["panorama_spr_sa_moves_total"]
	if moves := c["panorama_spr_sa_moves_total"]; moves > 0 {
		v["spr.sa_accept_frac"] = c["panorama_spr_sa_accepts_total"] / moves
	}
	v["spr.relaxations"] = c["panorama_spr_relaxations_total"]
	v["ultrafast.attempts"] = c["panorama_ultrafast_attempts_total"]
	v["ultrafast.placements"] = c["panorama_ultrafast_placements_total"]

	bare, _ := splitMapper(spec.Mapper)
	guidedOps, logRatio := 0, 0.0
	var out replayOut
	for i, a := range traced.Answers {
		if a.Hash == "" {
			continue
		}
		res, g := a.Res, env.graphs[a.Kernel]
		v["kernel."+a.Kernel+".compile_s"] = a.Wall.Seconds()
		v["kernel."+a.Kernel+".ii"] = float64(res.Lower.II)
		v["dfg.nodes"] += float64(g.NumNodes())
		v["core.clustering_s"] += res.ClusteringTime.Seconds()
		v["core.clustermap_s"] += res.ClusterMapTime.Seconds()
		v["core.lower_s"] += res.LowerTime.Seconds()
		v["core.glue_s"] += (a.Wall - res.TotalTime()).Seconds()
		if res.GuidanceLabel() == "guided" && res.Partition != nil {
			guidedOps++
		}
		logRatio += math.Log(float64(res.Lower.II) / float64(res.Lower.MII))

		o, err := replayOp(ctx, rec, len(ops)+i, g, env.arch, spec.Mapper, res)
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		out.Partitions += o.Partitions
		out.InterEdges += o.InterEdges
		out.Zeta += o.Zeta
		out.MRRGEdges += o.MRRGEdges
	}
	v["core.guided_frac"] = float64(guidedOps) / float64(len(ops))
	if bare == "spr" {
		v["spr.ii_over_mii"] = math.Exp(logRatio / float64(len(ops)))
	}
	v["spectral.partitions"] = float64(out.Partitions)
	v["spectral.inter_edges"] = float64(out.InterEdges)
	v["clustermap.zeta"] = float64(out.Zeta)
	v["mrrg.edges"] = float64(out.MRRGEdges)

	v["spectral.embed_s"] = rec.total(spanEmbed).Seconds()
	v["linalg.eigen_s"] = (rec.total(spanEmbed) - rec.total(spanLaplacian)).Seconds()
	v["spectral.sweep_s"] = rec.total(spanSweep).Seconds()
	if sweep := rec.total(spanSweep); sweep > 0 {
		v["kmeans.sweep_s"] = (sweep - rec.total(spanEmbed)).Seconds()
	}
	v["clustermap.map_s"] = rec.total(spanClusterMap).Seconds()
	v[bare+".map_s"] = rec.total(spanLower).Seconds()
	v["verify.check_ms"] = millis(rec.total(spanVerify))
	v["mrrg.build_ms"] = millis(rec.total(spanMRRG))
	var staged time.Duration
	for _, name := range replayStages {
		staged += rec.total(name)
	}
	v["core.replay_gap_frac"] = math.Abs(staged.Seconds()-ref.Wall.Seconds()) / ref.Wall.Seconds()

	var graphs []*dfg.Graph
	for _, k := range spec.Kernels {
		graphs = append(graphs, env.graphs[k])
	}
	if v["dfg.fingerprint_us"], v["dfg.codec_us"], err = graphProbes(graphs); err != nil {
		return nil, err
	}

	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := rec.write(path, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	rep.notef("%s seed %d traced: untraced pass %.3f s, traced pass %.3f s, replay stages %.3f s; spans in %s",
		cfg.workload, cfg.seed, ref.Wall.Seconds(), traced.Wall.Seconds(), staged.Seconds(), path)
	rep.notef("pipeline vs replay: clustering %.3f/%.3f s, cluster mapping %.3f/%.3f s, lower %.3f/%.3f s",
		v["core.clustering_s"], v["spectral.sweep_s"], v["core.clustermap_s"], v["clustermap.map_s"],
		v["core.lower_s"], rec.total(spanLower).Seconds())
	host.note(rep)
	return rep, nil
}

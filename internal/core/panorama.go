// Package core is the paper's primary contribution: the Panorama
// higher-level mapper (Algorithm 1). It partitions the loop-body DFG
// with spectral clustering, maps the resulting Cluster Dependency Graph
// onto the CGRA's cluster grid with the split&push ILPs, and uses the
// winning cluster mapping to guide a pluggable lower-level mapper
// (SPR* or UltraFast*).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"panorama/internal/arch"
	"panorama/internal/clustermap"
	"panorama/internal/dfg"
	"panorama/internal/failure"
	"panorama/internal/faultinject"
	"panorama/internal/obs"
	"panorama/internal/pool"
	"panorama/internal/spectral"
	"panorama/internal/spr"
	"panorama/internal/ultrafast"
	"panorama/internal/verify"
)

// Lower abstracts a lower-level CGRA mapper so Panorama's guidance can
// drive either SPR* or UltraFast* (paper §3.3: "Panorama is a portable
// higher-level mapper").
type Lower interface {
	// Name identifies the mapper in reports ("spr", "ultrafast").
	Name() string
	// Map maps the DFG; allowed restricts each node to CGRA cluster ids
	// (nil = unrestricted baseline). Long-running searches must honour
	// ctx and return ctx.Err() once it fires.
	Map(ctx context.Context, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (LowerResult, error)
}

// LowerResult is the mapper-independent view of a lower-level result.
type LowerResult struct {
	Success bool
	MII     int
	II      int
	QoM     float64
	// Mapping is the concrete mapping, exactly as the mapper returned it
	// (nil when the mapper failed), so callers can verify.Check what the
	// pipeline actually produced and, when it is routed, simulate it or
	// lower it to a configuration program. It is not part of the Summary
	// wire form.
	Mapping *verify.Mapping
}

// lowered is the LowerResult every mapper adapter returns: the mappers'
// own results differ only in their effort records.
func lowered(success bool, mii, ii int, m *verify.Mapping) LowerResult {
	return LowerResult{Success: success, MII: mii, II: ii, QoM: arch.QoM(mii, ii), Mapping: m}
}

// SPRLower adapts internal/spr to the Lower interface.
type SPRLower struct {
	Options spr.Options
}

// Name returns "spr".
func (s SPRLower) Name() string { return "spr" }

// Map runs the SPR* mapper.
func (s SPRLower) Map(ctx context.Context, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (LowerResult, error) {
	opts := s.Options
	opts.AllowedClusters = allowed
	res, err := spr.MapCtx(ctx, d, a, opts)
	if err != nil {
		return LowerResult{}, err
	}
	return lowered(res.Success, res.MII, res.II, res.Mapping), nil
}

// UltraFastLower adapts internal/ultrafast to the Lower interface.
type UltraFastLower struct {
	Options ultrafast.Options
}

// Name returns "ultrafast".
func (u UltraFastLower) Name() string { return "ultrafast" }

// Map runs the UltraFast* mapper.
func (u UltraFastLower) Map(ctx context.Context, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (LowerResult, error) {
	opts := u.Options
	opts.AllowedClusters = allowed
	res, err := ultrafast.MapCtx(ctx, d, a, opts)
	if err != nil {
		return LowerResult{}, err
	}
	return lowered(res.Success, res.MII, res.II, res.Mapping), nil
}

// Budgets caps the wall clock of a run. The clock only aborts: when
// Total (or the caller's own context) fires, the pipeline stops and
// returns the partial Result next to an error matching ErrBudget or
// ErrCancelled; it never settles for a result the clock picked. Zero
// means unbounded.
type Budgets struct {
	Total time.Duration // whole-pipeline deadline
}

// StageRecord is one pipeline stage's provenance entry. The JSON form
// is part of the service wire format (see Summary), so the field tags
// are stable; Wall is measured on the Result only and never crosses a
// wire.
type StageRecord struct {
	Stage string        `json:"stage"`          // "clustering", "clustermap", "lower"
	Wall  time.Duration `json:"-"`              // wall-clock spent in the stage
	Note  string        `json:"note,omitempty"` // what the stage settled for ("", "3 candidates", rung name, ...)
}

// Provenance records how a Result was produced: per-stage wall time
// and notes, and — when a budget ended the run — which stage exhausted
// it.
type Provenance struct {
	Stages      []StageRecord
	BudgetStage string // stage whose budget/cancellation ended the run ("" if none)
}

func (p *Provenance) record(stage string, wall time.Duration, note string) {
	p.Stages = append(p.Stages, StageRecord{Stage: stage, Wall: wall, Note: note})
	observeStage(stage, wall)
}

// Config tunes the Panorama pipeline.
type Config struct {
	// MaxDFGClusters is m in Algorithm 1 (the top of the k sweep);
	// 0 means 2 * number of CGRA clusters.
	MaxDFGClusters int
	// TopPartitions is how many balanced partitions enter cluster
	// mapping (the paper uses 3).
	TopPartitions int
	// Seed drives spectral clustering's k-means and the lower mapper.
	Seed int64
	// Workers bounds the worker pool behind the spectral k-sweep and
	// the per-candidate cluster mapping; 0 means one per CPU, 1 forces
	// the serial reference execution. Results are identical at any
	// value (each parallel unit is seeded and reduced independently of
	// completion order).
	Workers int
	// ClusterMap tunes the scattering ILPs.
	ClusterMap clustermap.Options
	// RelaxOnFailure widens the cluster restriction (memory ops first,
	// then everything) if the guided lower-level mapping fails
	// outright, so Panorama degrades to the baseline instead of
	// failing. Enabled by default via MapPanorama.
	RelaxOnFailure bool
	// Budgets caps the wall clock of the whole run; see the Budgets
	// type for its abort-only semantics.
	Budgets Budgets
}

// Result is the outcome of the full Panorama pipeline.
type Result struct {
	Kernel string

	Partition  *spectral.Partition // chosen clustering solution
	CDG        *spectral.CDG
	ClusterMap *clustermap.Result
	Candidates int // partitions that entered cluster mapping

	Lower LowerResult
	// Relaxed reports that the memory operations were freed from the
	// cluster restriction (pre-emptively on bank pressure, or after a
	// guided failure) and the reported mapping still used the remaining
	// guidance. FellBack reports that guidance was abandoned entirely
	// and the mapping is an unguided baseline run; the two are mutually
	// exclusive so benchmark tables never attribute baseline results to
	// guided mapping.
	Relaxed  bool
	FellBack bool

	ClusteringTime time.Duration
	ClusterMapTime time.Duration
	LowerTime      time.Duration

	// Worker-pool statistics of the two parallel stages (zero-valued
	// for MapBaseline), so compile-time speedup is observable per run.
	SweepStats      pool.Stats
	ClusterMapStats pool.Stats

	// Provenance records what each stage did and, when a budget ended
	// the run, which stage exhausted it. It is filled in even when the
	// pipeline returns an error next to this partial Result.
	Provenance Provenance

	// Trace is the observability trace the run was recorded into, when
	// the caller attached one to the context (obs.WithSpan); nil
	// otherwise. It is not part of the Summary wire form — the service
	// serves it separately (GET /v1/trace/{id}).
	Trace *obs.Trace
}

// TotalTime returns the end-to-end compilation time.
func (r *Result) TotalTime() time.Duration {
	return r.ClusteringTime + r.ClusterMapTime + r.LowerTime
}

// GuidanceLabel names how much of the cluster restriction survived,
// for report rendering: "guided", "relaxed" or "fallback".
func (r *Result) GuidanceLabel() string {
	switch {
	case r.FellBack:
		return "fallback"
	case r.Relaxed:
		return "relaxed"
	default:
		return "guided"
	}
}

// DefaultMaxClusters picks m for Algorithm 1's sweep: up to twice the
// CGRA cluster count (the paper's kernels choose K between 10 and 29 on
// a 16-cluster target), but never so many that average cluster size
// drops below ~6 DFG nodes — partitions of tiny fragments carry no
// community structure for the cluster mapping to exploit. The result
// is clamped to at least max(2, R): below R column scattering has too
// few clusters, and below 2 the "sweep" would degenerate to the whole
// DFG in one cluster.
func DefaultMaxClusters(d *dfg.Graph, a *arch.CGRA) int {
	m := 2 * a.NumClusters()
	if sizeCap := d.NumNodes() / 6; sizeCap < m {
		m = sizeCap
	}
	if m < a.ClusterRows {
		m = a.ClusterRows
	}
	if m < 2 {
		m = 2
	}
	return m
}

// MapPanorama runs Algorithm 1: sweep spectral clusterings from R to m,
// cluster-map the three most balanced partitions with escalating ζ,
// pick the mapping with the least inter-cluster routing complexity, and
// guide the lower-level mapper with it.
func MapPanorama(d *dfg.Graph, a *arch.CGRA, lower Lower, cfg Config) (*Result, error) {
	return MapPanoramaCtx(context.Background(), d, a, lower, cfg)
}

// MapPanoramaCtx is MapPanorama with cancellation and deadlines. The
// clustering sweep and the per-candidate cluster mapping fan out over
// a worker pool bounded by cfg.Workers; the lower-level mapper
// receives ctx and aborts its II search once the context fires.
//
// Failure semantics: errors carry the taxonomy of internal/failure
// (ErrBudget / ErrCancelled / ErrInfeasible / ErrLowerFailed, wrapped
// in a StageError naming the stage). When a budget ends the run after
// the pipeline has produced anything at all, the partial Result is
// returned next to the error with Provenance.BudgetStage naming the
// stage that exhausted it. A panic anywhere in the pipeline is
// recovered into a *failure.PanicError instead of crashing the caller.
func MapPanoramaCtx(ctx context.Context, d *dfg.Graph, a *arch.CGRA, lower Lower, cfg Config) (res *Result, err error) {
	defer func() { recordOutcome(res, err, false) }()
	defer func() {
		if r := recover(); r != nil {
			err = failure.Stage("pipeline", failure.NewPanic(-1, r, debug.Stack()))
		}
	}()
	if err := d.Freeze(); err != nil {
		return nil, err
	}
	r, c := a.ClusterRows, a.ClusterCols
	if cfg.MaxDFGClusters <= 0 {
		cfg.MaxDFGClusters = DefaultMaxClusters(d, a)
	}
	if cfg.TopPartitions <= 0 {
		cfg.TopPartitions = 3
	}
	if cfg.Budgets.Total > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Budgets.Total)
		defer cancel()
	}
	res = &Result{Kernel: d.Name, Trace: obs.TraceFrom(ctx)}

	// Lines 1-4: clustering sweep k = R .. m. One eigendecomposition,
	// k-means fanned out per k.
	t0 := time.Now()
	cctx, csp := obs.StartSpan(ctx, "clustering")
	csp.Set("maxK", cfg.MaxDFGClusters)
	parts, sweepStats, err := spectral.SweepCtx(cctx, d, r, cfg.MaxDFGClusters, cfg.Seed, cfg.Workers)
	csp.End()
	res.ClusteringTime = time.Since(t0)
	res.SweepStats = sweepStats
	if err != nil {
		res.Provenance.record("clustering", res.ClusteringTime, "failed")
		return res, res.abort("clustering", err)
	}
	// Partitions must have at least R clusters for column scattering.
	var usable []*spectral.Partition
	for _, p := range parts {
		if p.K >= r {
			usable = append(usable, p)
		}
	}
	if len(usable) == 0 {
		res.Provenance.record("clustering", res.ClusteringTime, "no usable partition")
		return res, failure.Stage("clustering", fmt.Errorf(
			"no partition with at least %d clusters: %w", r, failure.ErrInfeasible))
	}
	top := spectral.TopBalanced(usable, cfg.TopPartitions)
	res.Candidates = len(top)
	res.Provenance.record("clustering", res.ClusteringTime, fmt.Sprintf("%d candidates", len(top)))

	// Lines 5-9: cluster-map each candidate with ζ escalation; keep the
	// solution with minimal ζ (ties: lower weighted distance cost).
	// Cluster capacities at the target II ("minimally unrolled MRRG")
	// stop the scattering from stacking more load on a cluster than its
	// FU or memory slots can absorb.
	cmOpts := cfg.ClusterMap
	if cmOpts.NodeCapacity == 0 {
		mii := a.MII(d)
		pesPer := a.NumPEs() / a.NumClusters()
		memPer := len(a.MemPEs()) / a.NumClusters()
		cmOpts.NodeCapacity = pesPer * (mii + 1)
		cmOpts.MemCapacity = memPer * (mii + 1)
	}
	t1 := time.Now()
	// The candidates are independent ILP solves: fan them out and
	// reduce in candidate order, so the winner is the same one the
	// serial loop would pick regardless of completion order. Budget and
	// cancellation errors stop the fan-out and abort the run;
	// infeasible candidates are dropped silently.
	mctx, msp := obs.StartSpan(ctx, "clustermap")
	msp.Set("candidates", len(top))
	cms := make([]*clustermap.Result, len(top))
	cmStats, cmErr := pool.Run(mctx, cfg.Workers, len(top), func(i int) error {
		ictx, isp := obs.StartSpan(mctx, "candidate")
		isp.Set("index", i)
		defer isp.End()
		cdg := spectral.BuildCDG(d, top[i])
		cm, err := clustermap.MapWithEscalationCtx(ictx, cdg, r, c, cmOpts)
		if err != nil && !failure.IsBudget(err) && !failure.IsCancelled(err) {
			// Capacity can be unsatisfiable for very lumpy partitions;
			// retry this candidate unconstrained rather than dropping it.
			relaxed := cmOpts
			relaxed.NodeCapacity, relaxed.MemCapacity = 0, 0
			cm, err = clustermap.MapWithEscalationCtx(ictx, cdg, r, c, relaxed)
		}
		if err != nil {
			if failure.IsBudget(err) || failure.IsCancelled(err) {
				return err // out of time: stop the fan-out
			}
			return nil // infeasible candidate, not a pipeline error
		}
		cms[i] = cm
		return nil
	})
	msp.End()
	res.ClusterMapTime = time.Since(t1)
	res.ClusterMapStats = cmStats
	if cmErr != nil {
		res.Provenance.record("clustermap", res.ClusterMapTime, "failed")
		return res, res.abort("clustermap", cmErr)
	}
	var best *clustermap.Result
	var bestPart *spectral.Partition
	for i, cm := range cms {
		if cm == nil {
			continue
		}
		if best == nil || less(cm, best) {
			best, bestPart = cm, top[i]
		}
	}
	if best == nil {
		res.Provenance.record("clustermap", res.ClusterMapTime, "all candidates infeasible")
		return res, failure.Stage("clustermap", fmt.Errorf(
			"cluster mapping failed for all %d candidate partitions: %w", len(top), failure.ErrInfeasible))
	}
	res.Provenance.record("clustermap", res.ClusterMapTime, "")
	res.Partition = bestPart
	res.CDG = best.CDG
	res.ClusterMap = best

	// Line 10: guided lower-level mapping. When the cluster restriction
	// alone forces the per-cluster memory bound past the global MII,
	// free the memory operations up front: bank pressure is a property
	// of where loads/stores sit, not of the community structure the
	// guidance is meant to preserve.
	allowed := AllowedClusters(d, a, bestPart, best)
	if memBound(d, a, allowed) > a.MII(d) {
		allowed = relaxMemOps(d, allowed)
		res.Relaxed = true
	}

	// The degradation ladder: each rung is one lower-mapper attempt. A
	// rung that errors out while the pipeline deadline is alive — an
	// injected fault, a hard mapper error — degrades to the next rung;
	// exhausting the ladder surfaces the last error, typed.
	type rung struct {
		name     string
		allowed  [][]int
		relaxed  bool
		fellback bool
	}
	rungs := []rung{{name: "guided", allowed: allowed, relaxed: res.Relaxed}}
	if cfg.RelaxOnFailure {
		rungs = append(rungs,
			rung{name: "relaxed", allowed: relaxMemOps(d, allowed), relaxed: true},
			rung{name: "unguided", allowed: nil, fellback: true},
		)
	}
	t2 := time.Now()
	lctx, lsp := obs.StartSpan(ctx, "lower")
	defer lsp.End()
	var lastErr error
	note := ""
	for _, rg := range rungs {
		rctx, rsp := obs.StartSpan(lctx, "rung")
		rsp.Set("rung", rg.name)
		low, lerr := runRung(rctx, lower, d, a, rg.allowed)
		rsp.End()
		if lerr != nil {
			if ctx.Err() != nil || isPanic(lerr) {
				// The pipeline deadline fired (or the mapper panicked):
				// further rungs are pointless.
				res.LowerTime = time.Since(t2)
				res.Provenance.record("lower", res.LowerTime, rg.name+" aborted")
				return res, res.abort("lower", lerr)
			}
			lastErr = lerr
			note = rg.name + " failed, degraded"
			continue
		}
		res.Lower = low
		if low.Success {
			res.Relaxed = rg.relaxed
			res.FellBack = rg.fellback
			res.LowerTime = time.Since(t2)
			res.Provenance.record("lower", res.LowerTime, rg.name)
			return res, nil
		}
		// A clean run that found no mapping at any II: keep its MII/II
		// diagnostics and try the next rung.
		lastErr = nil
		note = rg.name + " unsuccessful"
	}
	res.LowerTime = time.Since(t2)
	res.Provenance.record("lower", res.LowerTime, note)
	if lastErr != nil {
		if failure.IsBudget(lastErr) || failure.IsCancelled(lastErr) {
			return res, res.abort("lower", lastErr)
		}
		return res, failure.Stage("lower", fmt.Errorf("%w: %w", failure.ErrLowerFailed, lastErr))
	}
	// Every rung completed without a mapping; that is a well-formed
	// unsuccessful Result (Lower.Success == false), not an error —
	// exactly as before budgets existed.
	return res, nil
}

// runRung runs one rung of the lower-mapper ladder, with the
// faultinject site armed tests use to force rung failures.
func runRung(ctx context.Context, lower Lower, d *dfg.Graph, a *arch.CGRA, allowed [][]int) (LowerResult, error) {
	if err := faultinject.Fire(faultinject.SiteLowerMap); err != nil {
		return LowerResult{}, err
	}
	return lower.Map(ctx, d, a, allowed)
}

// abort finalises a fatal stage failure: the error is classified and
// attributed to the stage, and when it is a budget expiry or a
// cancellation the stage is recorded as the one that exhausted the
// run's time.
func (r *Result) abort(stage string, err error) error {
	werr := failure.Stage(stage, err)
	if failure.IsBudget(werr) || failure.IsCancelled(werr) {
		r.Provenance.BudgetStage = stage
	}
	return werr
}

// isPanic reports whether err carries a recovered panic.
func isPanic(err error) bool {
	var pe *failure.PanicError
	return errors.As(err, &pe)
}

// less orders cluster mappings: primarily by the composite quality
// score (load imbalance + routing distance), then by the paper's ζ
// preference (fewer diagonal-edge allowances).
func less(a, b *clustermap.Result) bool {
	if a.Score() != b.Score() {
		return a.Score() < b.Score()
	}
	return a.Zeta1+a.Zeta2 < b.Zeta1+b.Zeta2
}

// AllowedClusters expands a cluster mapping into the per-DFG-node CGRA
// cluster restriction handed to the lower-level mapper: every DFG node
// may use any CGRA cluster its CDG node occupies. Memory operations
// additionally get the clusters adjacent to their assignment — each
// cluster owns only a handful of memory-capable PEs, so strict pinning
// saturates bank ports long before FU slots run out, while the adjacent
// cluster's bank is still one hop away.
func AllowedClusters(d *dfg.Graph, a *arch.CGRA, p *spectral.Partition, cm *clustermap.Result) [][]int {
	allowed := make([][]int, d.NumNodes())
	for v := 0; v < d.NumNodes(); v++ {
		cdgNode := p.Assign[v]
		row := cm.Rows[cdgNode]
		var cids []int
		for _, col := range cm.Cols[cdgNode] {
			cids = append(cids, a.ClusterID(row, col))
		}
		if d.Nodes[v].Op.IsMem() {
			cids = withNeighbors(a, cids)
		}
		allowed[v] = cids
	}
	return allowed
}

// withNeighbors returns cids plus every cluster adjacent (cluster-grid
// Manhattan distance 1) to one of them, deduplicated and sorted.
func withNeighbors(a *arch.CGRA, cids []int) []int {
	set := make(map[int]bool, 4*len(cids))
	for _, cid := range cids {
		set[cid] = true
		r, c := a.ClusterCoord(cid)
		for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr >= 0 && nr < a.ClusterRows && nc >= 0 && nc < a.ClusterCols {
				set[a.ClusterID(nr, nc)] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for cid := range set {
		out = append(out, cid)
	}
	sort.Ints(out)
	return out
}

// memBound returns the per-cluster memory-pressure lower bound on II
// implied by a cluster restriction: every memory op needs a memory-PE
// slot in one of its allowed clusters, and a cluster with M memory PEs
// offers M slots per II cycle. The bound is the smallest b for which
// all memory ops can be assigned to allowed clusters with no cluster
// receiving more than b*M ops — a min-load (fractional spread)
// assignment over the actual allowed sets, not just singletons, so
// bank saturation is detected even though AllowedClusters always
// widens memory ops to their neighbour clusters.
func memBound(d *dfg.Graph, a *arch.CGRA, allowed [][]int) int {
	// Collect each memory op's set of allowed clusters that actually
	// own memory PEs (an unrestricted op may use any such cluster).
	mems := make([]int, a.NumClusters())
	var memClusters []int
	for cid := 0; cid < a.NumClusters(); cid++ {
		for _, pe := range a.PEsInCluster(cid) {
			if a.PEs[pe].MemCapable {
				mems[cid]++
			}
		}
		if mems[cid] > 0 {
			memClusters = append(memClusters, cid)
		}
	}
	var ops [][]int // per memory op: allowed clusters with memory PEs
	for v, cids := range allowed {
		if !d.Nodes[v].Op.IsMem() {
			continue
		}
		var usable []int
		if cids == nil {
			usable = memClusters
		} else {
			for _, cid := range cids {
				if mems[cid] > 0 {
					usable = append(usable, cid)
				}
			}
		}
		if len(usable) == 0 {
			// No memory PE reachable under the restriction: unmappable
			// here; the caller's relaxation path deals with it.
			return 1 << 20
		}
		ops = append(ops, usable)
	}
	if len(ops) == 0 {
		return 1
	}
	// Binary-search the smallest feasible b. b = len(ops) is always
	// feasible (each cluster in every op's set has >= 1 memory PE).
	lo, hi := 1, len(ops)
	for lo < hi {
		mid := (lo + hi) / 2
		if memAssignFeasible(ops, mems, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// memAssignFeasible reports whether every memory op can be assigned to
// one of its allowed clusters with cluster cid receiving at most
// b*mems[cid] ops — bipartite matching with cluster capacities, via
// Kuhn-style augmenting paths (ops are unit demands; instances are
// tiny: tens of ops, at most a few dozen clusters).
func memAssignFeasible(ops [][]int, mems []int, b int) bool {
	capLeft := make([]int, len(mems))
	for cid, m := range mems {
		capLeft[cid] = b * m
	}
	assign := make([]int, len(ops)) // op -> cluster
	for i := range assign {
		assign[i] = -1
	}
	byCluster := make([][]int, len(mems)) // cluster -> assigned ops
	var augment func(op int, visited []bool) bool
	augment = func(op int, visited []bool) bool {
		for _, cid := range ops[op] {
			if visited[cid] {
				continue
			}
			visited[cid] = true
			if capLeft[cid] > 0 {
				capLeft[cid]--
				assign[op] = cid
				byCluster[cid] = append(byCluster[cid], op)
				return true
			}
			// Cluster full: try to evict one of its ops elsewhere.
			for _, other := range byCluster[cid] {
				if augment(other, visited) {
					// other moved away; take its slot.
					out := byCluster[cid][:0]
					for _, o := range byCluster[cid] {
						if o != other {
							out = append(out, o)
						}
					}
					byCluster[cid] = out
					assign[op] = cid
					byCluster[cid] = append(byCluster[cid], op)
					return true
				}
			}
		}
		return false
	}
	for op := range ops {
		visited := make([]bool, len(mems))
		if !augment(op, visited) {
			return false
		}
	}
	return true
}

// relaxMemOps returns a copy of the restriction with memory operations
// unrestricted.
func relaxMemOps(d *dfg.Graph, allowed [][]int) [][]int {
	out := make([][]int, len(allowed))
	copy(out, allowed)
	for v, nd := range d.Nodes {
		if nd.Op.IsMem() {
			out[v] = nil
		}
	}
	return out
}

// MapBaseline runs the unguided lower-level mapper (the paper's SPR*
// and Ultra-Fast baselines).
func MapBaseline(d *dfg.Graph, a *arch.CGRA, lower Lower) (*Result, error) {
	return MapBaselineCtx(context.Background(), d, a, lower)
}

// MapBaselineCtx is MapBaseline with cancellation. Errors carry the
// failure taxonomy and panics are recovered, exactly as in
// MapPanoramaCtx.
func MapBaselineCtx(ctx context.Context, d *dfg.Graph, a *arch.CGRA, lower Lower) (res *Result, err error) {
	defer func() { recordOutcome(res, err, true) }()
	defer func() {
		if r := recover(); r != nil {
			err = failure.Stage("pipeline", failure.NewPanic(-1, r, debug.Stack()))
		}
	}()
	if err := d.Freeze(); err != nil {
		return nil, err
	}
	res = &Result{Kernel: d.Name, Trace: obs.TraceFrom(ctx)}
	t := time.Now()
	lctx, lsp := obs.StartSpan(ctx, "lower")
	low, lerr := lower.Map(lctx, d, a, nil)
	lsp.End()
	res.LowerTime = time.Since(t)
	res.Provenance.record("lower", res.LowerTime, "unguided")
	if lerr != nil {
		return res, res.abort("lower", lerr)
	}
	res.Lower = low
	return res, nil
}

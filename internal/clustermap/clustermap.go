// Package clustermap implements Panorama's higher-level cluster mapping
// (paper §3.2): the split&push-inspired assignment of CDG nodes to the
// CGRA's RxC cluster grid.
//
// Column-wise scattering repeatedly splits the node set of a cluster
// row into a "stay" and a "push" group with an ILP whose constraints
// (the fork-minimisation constraints of SPKM/split&push) steer the
// split towards a matching cut, bounding the number of adjacent edges
// of any node that the cut severs by ζ1/ζ2. Row-wise scattering then
// distributes each row's nodes over the C columns with a second ILP
// that gives big CDG nodes proportionally more clusters (one-to-many),
// lets small nodes share a cluster (many-to-one), and minimises the
// weighted column distance between dependent nodes.
//
// Deviation from the paper: the paper solves row-wise scattering as one
// monolithic Gurobi ILP across all rows. We solve an exact ILP per row
// and run two coordinate-descent passes over the rows, which keeps each
// ILP small enough for exact branch-and-bound while optimising the same
// objective.
package clustermap

import (
	"context"
	"fmt"
	"sort"

	"panorama/internal/failure"
	"panorama/internal/ilp"
	"panorama/internal/obs"
	"panorama/internal/spectral"
)

// Result is a complete cluster mapping.
type Result struct {
	CDG  *spectral.CDG
	R, C int

	Rows  []int   // CDG node -> cluster-grid row
	Cols  [][]int // CDG node -> sorted cluster-grid columns it occupies
	Zeta1 int     // ζ1 at which column-wise scattering succeeded
	Zeta2 int

	Occupancy [][]int // [row][col] -> number of CDG nodes on that cluster
	Cost      int     // sum over CDG edges of weight * cluster distance
	Diagonals int     // CDG edges whose endpoints differ in row AND column
	// LoadImbalance is the total absolute deviation of per-CGRA-cluster
	// DFG-node load from the perfectly even distribution.
	LoadImbalance int

	// Provenance of the degradation ladder inside cluster mapping:
	// GreedyRows counts the rows whose final column assignment came
	// from the greedy fallback instead of the row ILP; Limited reports
	// that at least one ILP solve hit its node budget (its incumbent,
	// or the greedy placement, was used instead of a proven optimum).
	GreedyRows int
	Limited    bool
}

// Score is the composite quality used to pick among feasible cluster
// mappings: imbalance hurts the lower-level II directly, distance cost
// hurts routing.
func (res *Result) Score() int { return 3*res.LoadImbalance + res.Cost }

// Options tunes Map.
type Options struct {
	Zeta1, Zeta2 int // matching-cut slack (>=1); see paper §3.2.1
	MaxNodes     int // ILP node budget per solve (default 20_000)

	// NodeCapacity and MemCapacity bound the DFG nodes (resp. memory
	// operations) a single CGRA cluster may receive. The caller derives
	// them from the cluster's FU/memory-PE slot count at the target II
	// ("minimally unrolled MRRG"); 0 disables the bound. Enforced as
	// hard ILP constraints, softly by the greedy fallback.
	NodeCapacity int
	MemCapacity  int

	// DisableMatchingCut drops the fork-minimisation constraints
	// (ablation: shows the diagonal-edge growth the constraints avoid).
	DisableMatchingCut bool
}

// Map runs one cluster-mapping attempt with fixed ζ values, mirroring
// the paper's ClusterMapping(CDG, r, c, ζ1, ζ2). ok is false when the
// column-wise scattering ILP is infeasible at these ζ values.
func Map(cdg *spectral.CDG, r, c int, opts Options) (res *Result, ok bool, err error) {
	return MapCtx(context.Background(), cdg, r, c, opts)
}

// MapCtx is Map with cancellation and deadline awareness: ctx is
// threaded into every split/row ILP solve, so a fired deadline stops
// the branch-and-bound mid-search and the attempt aborts with an error
// carrying the failure taxonomy (failure.ErrBudget /
// failure.ErrCancelled). Only the node budget (Options.MaxNodes) lets
// an attempt complete on an incumbent or the greedy fallback.
func MapCtx(ctx context.Context, cdg *spectral.CDG, r, c int, opts Options) (res *Result, ok bool, err error) {
	if r <= 0 || c <= 0 {
		return nil, false, fmt.Errorf("clustermap: invalid cluster grid %dx%d", r, c)
	}
	if cdg.K < r {
		return nil, false, fmt.Errorf("clustermap: %d CDG nodes cannot fill %d cluster rows", cdg.K, r)
	}
	if opts.Zeta1 <= 0 {
		opts.Zeta1 = 1
	}
	if opts.Zeta2 <= 0 {
		opts.Zeta2 = 1
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 20_000
	}
	ctx, span := obs.StartSpan(ctx, "clustermap.attempt")
	defer span.End()
	span.Set("zeta1", opts.Zeta1)
	span.Set("zeta2", opts.Zeta2)
	span.Set("k", cdg.K)

	rows, ok, err := columnScatter(ctx, cdg, r, c, opts)
	if err != nil || !ok {
		recordAttempt(span, ok, err)
		return nil, ok, err
	}
	cols, greedyRows, limited, err := rowScatter(ctx, cdg, rows, r, c, opts)
	if err != nil {
		recordAttempt(span, false, err)
		return nil, false, err
	}
	recordAttempt(span, true, nil)
	mGreedyRows.Add(int64(greedyRows))
	span.Set("greedyRows", greedyRows)
	span.Set("limited", limited)

	res = &Result{
		CDG: cdg, R: r, C: c,
		Rows: rows, Cols: cols,
		Zeta1: opts.Zeta1, Zeta2: opts.Zeta2,
		GreedyRows: greedyRows, Limited: limited,
	}
	res.fillStats()
	span.Set("score", res.Score())
	return res, true, nil
}

// recordAttempt classifies one MapCtx attempt for the effort metrics
// and mirrors the outcome onto the attempt span.
func recordAttempt(span *obs.Span, ok bool, err error) {
	switch {
	case err != nil:
		mAttemptError.Inc()
		span.Set("outcome", "error")
	case !ok:
		mAttemptInfeasible.Inc()
		span.Set("outcome", "infeasible")
	default:
		mAttemptOK.Inc()
		span.Set("outcome", "ok")
	}
}

// MapWithEscalation implements Algorithm 1 lines 6-9: retry with
// incremented ζ1/ζ2 until the ILP becomes feasible. It then explores
// two further ζ steps and keeps the best mapping by Score — a lopsided
// matching-cut solution at the minimal ζ can be much worse for the
// lower-level mapper than a slightly relaxed cut.
func MapWithEscalation(cdg *spectral.CDG, r, c int, opts Options) (*Result, error) {
	return MapWithEscalationCtx(context.Background(), cdg, r, c, opts)
}

// MapWithEscalationCtx is MapWithEscalation with cancellation. A fired
// context aborts the escalation with a classified error
// (failure.ErrBudget or failure.ErrCancelled) even when a feasible
// mapping is in hand, so a returned mapping never depends on wall time;
// failure.ErrInfeasible reports that the escalation genuinely ran dry.
func MapWithEscalationCtx(ctx context.Context, cdg *spectral.CDG, r, c int, opts Options) (*Result, error) {
	if opts.Zeta1 <= 0 {
		opts.Zeta1 = 1
	}
	if opts.Zeta2 <= 0 {
		opts.Zeta2 = 1
	}
	maxZeta := 2*cdg.K + 2 // beyond this the constraints are vacuous
	var best *Result
	extra := 0
	for ; opts.Zeta1 <= maxZeta && extra < 3; opts.Zeta1, opts.Zeta2 = opts.Zeta1+1, opts.Zeta2+1 {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("clustermap: escalation stopped at zeta=%d: %w",
				opts.Zeta1, failure.Classify(cerr))
		}
		res, ok, err := MapCtx(ctx, cdg, r, c, opts)
		if err != nil {
			return nil, err
		}
		if ok {
			if best == nil || res.Score() < best.Score() {
				best = res
			}
		}
		if best != nil {
			extra++
		}
	}
	if best == nil {
		return nil, fmt.Errorf("clustermap: no feasible cluster mapping up to zeta=%d: %w",
			maxZeta, failure.ErrInfeasible)
	}
	return best, nil
}

// columnScatter assigns every CDG node a cluster row (paper §3.2.1).
// It starts with all nodes at row 0 and repeatedly splits off the
// nodes that stay, pushing the rest to the next row.
func columnScatter(ctx context.Context, cdg *spectral.CDG, r, c int, opts Options) ([]int, bool, error) {
	total := cdg.TotalNodes()
	targetPerRow := total / r
	if targetPerRow == 0 {
		targetPerRow = 1
	}

	rows := make([]int, cdg.K)
	fixed := make(map[int]int, cdg.K) // node -> assigned row
	current := make([]int, cdg.K)     // CDG node ids still travelling
	for i := range current {
		current[i] = i
	}

	for row := 0; row < r-1; row++ {
		stay, ok, err := splitILP(ctx, cdg, current, fixed, targetPerRow, r-1-row, c, opts)
		if err != nil || !ok {
			return nil, ok, err
		}
		for _, v := range stay {
			fixed[v] = row
		}
		staySet := make(map[int]bool, len(stay))
		for _, v := range stay {
			staySet[v] = true
		}
		var next []int
		for _, v := range current {
			if staySet[v] {
				rows[v] = row
			} else {
				next = append(next, v)
			}
		}
		current = next
	}
	for _, v := range current {
		rows[v] = r - 1
	}
	return rows, true, nil
}

// splitILP selects the subset of current that stays at this row.
// remainingRows is the number of rows still to fill below; the push
// group must contain at least that many nodes. fixed holds the rows of
// already-settled nodes: pushing a node whose dependence partners sit
// in the rows above widens their final distance, so such pushes are
// charged in the objective.
func splitILP(ctx context.Context, cdg *spectral.CDG, current []int, fixed map[int]int, target, remainingRows, c int, opts Options) ([]int, bool, error) {
	m := ilp.NewModel()
	vars := make(map[int]ilp.VarID, len(current))
	for _, v := range current {
		vars[v] = m.Binary(fmt.Sprintf("stay_%d", v))
	}

	inCurrent := make(map[int]bool, len(current))
	for _, v := range current {
		inCurrent[v] = true
	}

	// Objective: |sum(stay_i * size_i) - target| (paper's column-wise
	// objective distributes DFG nodes evenly over the rows), plus a
	// memory-pressure term that spreads load/store operations as well —
	// memory-capable PEs are the scarce resource of every cluster, so a
	// node-balanced but memory-lopsided row forces the lower mapper
	// into a higher II (implementation refinement over the paper's
	// node-count-only objective; see DESIGN.md).
	var sizeExpr, memExpr ilp.Expr
	maxAbs, memTotal := 0, 0
	for _, v := range current {
		sizeExpr = sizeExpr.Plus(vars[v], cdg.Sizes[v])
		maxAbs += cdg.Sizes[v]
		if ms := cdg.MemSize(v); ms > 0 {
			memExpr = memExpr.Plus(vars[v], ms)
			memTotal += ms
		}
	}
	sizeExpr = sizeExpr.PlusConst(-target)
	if maxAbs < target {
		maxAbs = target
	}
	t := m.AbsVar("dev", sizeExpr, maxAbs+target)
	obj := ilp.NewExpr(ilp.Term{Var: t, Coef: 3})
	if memTotal > 0 {
		memTarget := memTotal * target / maxInt(1, maxAbs)
		memExpr = memExpr.PlusConst(-memTarget)
		tm := m.AbsVar("memdev", memExpr, memTotal+memTarget)
		obj = obj.Plus(tm, 4)
	}

	// Minimise the weight of edges the split severs (dependent nodes
	// kept in the same row route locally), and pull nodes whose
	// partners are already fixed in the rows above toward staying —
	// every extra push widens that dependence by one more cluster row.
	for i, u := range current {
		for _, v := range current[i+1:] {
			w := cdg.UndirectedWeight(u, v)
			if w == 0 {
				continue
			}
			e := ilp.NewExpr(ilp.Term{Var: vars[u], Coef: 1}, ilp.Term{Var: vars[v], Coef: -1})
			cut := m.AbsVar(fmt.Sprintf("cut_%d_%d", u, v), e, 1)
			obj = obj.Plus(cut, w)
		}
		pull := 0
		for _, x := range cdg.Neighbors(u) {
			if _, isFixed := fixed[x]; isFixed {
				pull += cdg.UndirectedWeight(u, x)
			}
		}
		if pull > 0 {
			// (1 - stay_u) * pull, dropping the constant.
			obj = obj.Plus(vars[u], -pull)
		}
	}
	m.Minimize(obj)

	// Both groups non-empty; push group large enough for the rows left.
	var stayCount ilp.Expr
	for _, v := range current {
		stayCount = stayCount.Plus(vars[v], 1)
	}
	m.AddGE(stayCount, 1, "stay nonempty")
	m.AddLE(stayCount, len(current)-maxInt(1, remainingRows), "push covers rows")

	// Row capacity: the staying nodes must fit the row's FU and memory
	// slots at the target II (C clusters wide). sizeExpr and memExpr
	// already carry their -target constants, compensated on the right.
	if opts.NodeCapacity > 0 {
		m.AddLE(sizeExpr, opts.NodeCapacity*c-target, "row capacity")
	}
	if opts.MemCapacity > 0 && memTotal > 0 {
		memTarget := memTotal * target / maxInt(1, maxAbs)
		m.AddLE(memExpr, opts.MemCapacity*c-memTarget, "row mem capacity")
	}

	// Fork-minimisation (matching cut) constraints on multi-degree
	// nodes, restricted to the adjacency within the travelling set.
	if !opts.DisableMatchingCut {
		eta := 2*len(current) + opts.Zeta1 + opts.Zeta2 + 4
		for _, v := range current {
			var adj []int
			for _, w := range cdg.Neighbors(v) {
				if inCurrent[w] {
					adj = append(adj, w)
				}
			}
			deg := len(adj)
			if deg < 2 {
				continue
			}
			// sum_j (v_j + v_i) <= zeta1 + eta*v_i
			var e1 ilp.Expr
			for _, w := range adj {
				e1 = e1.Plus(vars[w], 1)
			}
			e1 = e1.Plus(vars[v], deg-eta)
			m.AddLE(e1, opts.Zeta1, "fork-pushed")
			// sum_j (v_j + v_i) >= 2*deg - zeta2 - eta*(1 - v_i),
			// i.e. sum_j v_j + (deg-eta)*v_i >= 2*deg - zeta2 - eta.
			var e2 ilp.Expr
			for _, w := range adj {
				e2 = e2.Plus(vars[w], 1)
			}
			e2 = e2.Plus(vars[v], deg-eta)
			m.AddGE(e2, 2*deg-opts.Zeta2-eta, "fork-stay")
		}
	}

	res := m.SolveCtx(ctx, ilp.Options{MaxNodes: opts.MaxNodes})
	if cerr := ctx.Err(); cerr != nil {
		// The caller's deadline may have cut the search short: its
		// incumbent is a function of wall time, so abort instead.
		return nil, false, fmt.Errorf("clustermap: column scatter: %w", failure.Classify(cerr))
	}
	switch res.Status {
	case ilp.Infeasible:
		return nil, false, nil
	case ilp.Limit:
		if !res.Feasible {
			// The node budget ran out before any incumbent; treat the ζ
			// as infeasible so escalation loosens the constraints (the
			// constrained instances get easier as ζ grows).
			return nil, false, nil
		}
	}
	var stay []int
	for _, v := range current {
		if res.Value(vars[v]) == 1 {
			stay = append(stay, v)
		}
	}
	sort.Ints(stay)
	return stay, true, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package clustermap

import (
	"context"
	"fmt"
	"sort"

	"panorama/internal/failure"
	"panorama/internal/faultinject"
	"panorama/internal/ilp"
	"panorama/internal/spectral"
)

// rowScatter distributes the CDG nodes of every cluster row across the
// C columns (paper §3.2.2). Each node i receives span(i) contiguous
// columns proportional to its size (one-to-many), several nodes may
// share a column (many-to-one), and the weighted column distance
// between dependent nodes is minimised.
//
// The rows are solved as independent exact ILPs with two
// coordinate-descent passes: pass one fixes unsolved rows at the grid
// centre, pass two re-solves every row against the pass-one solution.
//
// The returned greedyRows counts rows of the final pass whose
// assignment came from the greedy fallback; limited reports that at
// least one row ILP hit its node budget (ladder provenance for the
// caller).
func rowScatter(ctx context.Context, cdg *spectral.CDG, rows []int, r, c int, opts Options) (colsOut [][]int, greedyRows int, limited bool, err error) {
	perRow := make([][]int, r)
	for v, row := range rows {
		perRow[row] = append(perRow[row], v)
	}
	spans := computeSpans(cdg, r, c)

	// Start every node at the middle column(s).
	cols := make([][]int, cdg.K)
	for v := range cols {
		cols[v] = centeredInterval(spans[v], c)
	}

	for pass := 0; pass < 2; pass++ {
		greedyRows = 0 // only the final pass's assignments survive
		for row := 0; row < r; row++ {
			if len(perRow[row]) == 0 {
				continue
			}
			solved, usedGreedy, hitLimit, err := rowILP(ctx, cdg, perRow[row], rows, cols, spans, c, opts)
			if err != nil {
				return nil, 0, false, fmt.Errorf("row %d pass %d: %w", row, pass, err)
			}
			if usedGreedy {
				greedyRows++
			}
			limited = limited || hitLimit
			for v, cs := range solved {
				cols[v] = cs
			}
		}
	}
	return cols, greedyRows, limited, nil
}

// computeSpans returns how many cluster columns each CDG node should
// occupy: its size divided by the average DFG-nodes-per-CGRA-cluster,
// clamped to [1, C]. This realises the paper's proportional one-to-many
// constraint sum_c v_irc = |v_i| / (|V_D| / (R*C)).
func computeSpans(cdg *spectral.CDG, r, c int) []int {
	avg := float64(cdg.TotalNodes()) / float64(r*c)
	spans := make([]int, cdg.K)
	for v, sz := range cdg.Sizes {
		s := int(float64(sz)/avg + 0.5)
		if s < 1 {
			s = 1
		}
		if s > c {
			s = c
		}
		spans[v] = s
	}
	return spans
}

// balanceWeight scales the column load-balance objective against the
// edge-distance objective: a one-node imbalance costs as much as moving
// three unit-weight edges one column apart.
const balanceWeight = 3

func centeredInterval(span, c int) []int {
	start := (c - span) / 2
	out := make([]int, span)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// rowILP solves the column assignment for the nodes of one row, with
// every other row's columns fixed. It returns the new column sets for
// exactly the given nodes, whether the greedy fallback produced them,
// and whether the ILP hit its node budget.
func rowILP(ctx context.Context, cdg *spectral.CDG, nodes []int, rows []int, cols [][]int, spans []int, c int, opts Options) (map[int][]int, bool, bool, error) {
	m := ilp.NewModel()
	inRow := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inRow[v] = true
	}
	vars := make(map[int][]ilp.VarID, len(nodes))
	for _, v := range nodes {
		vs := make([]ilp.VarID, c)
		for col := 0; col < c; col++ {
			vs[col] = m.Binary(fmt.Sprintf("v_%d_%d", v, col))
		}
		vars[v] = vs

		// Proportional span.
		var sum ilp.Expr
		for col := 0; col < c; col++ {
			sum = sum.Plus(vs[col], 1)
		}
		m.AddEQ(sum, spans[v], "span")

		// Contiguity: forbid covered-gap-covered patterns.
		for c1 := 0; c1 < c; c1++ {
			for c2 := c1 + 1; c2 < c; c2++ {
				for c3 := c2 + 1; c3 < c; c3++ {
					e := ilp.NewExpr(
						ilp.Term{Var: vs[c1], Coef: 1},
						ilp.Term{Var: vs[c2], Coef: -1},
						ilp.Term{Var: vs[c3], Coef: 1},
					)
					m.AddLE(e, 1, "contig")
				}
			}
		}
	}

	// Load balance across the row's columns (the paper's condition 1:
	// distribute DFG nodes proportionate to cluster sizes): penalise
	// each column's deviation from the row's per-column average.
	var obj ilp.Expr
	rowLoad, memLoad := 0, 0
	share := make(map[int]int, len(nodes))
	memShare := make(map[int]int, len(nodes))
	for _, v := range nodes {
		share[v] = maxInt(1, cdg.Sizes[v]/maxInt(1, spans[v]))
		memShare[v] = cdg.MemSize(v) / maxInt(1, spans[v])
		rowLoad += cdg.Sizes[v]
		memLoad += cdg.MemSize(v)
	}
	target := rowLoad / c
	memTarget := memLoad / c
	for col := 0; col < c; col++ {
		var e ilp.Expr
		for _, v := range nodes {
			e = e.Plus(vars[v][col], share[v])
		}
		// Hard per-cluster capacity at the target II, when configured.
		if opts.NodeCapacity > 0 {
			m.AddLE(e, opts.NodeCapacity, "capacity")
		}
		e = e.PlusConst(-target)
		t := m.AbsVar(fmt.Sprintf("bal_%d", col), e, rowLoad+target)
		obj = obj.Plus(t, balanceWeight)
		if memLoad > 0 {
			var em ilp.Expr
			for _, v := range nodes {
				if memShare[v] > 0 {
					em = em.Plus(vars[v][col], memShare[v])
				}
			}
			if opts.MemCapacity > 0 {
				m.AddLE(em, opts.MemCapacity, "mem capacity")
			}
			em = em.PlusConst(-memTarget)
			tm := m.AbsVar(fmt.Sprintf("membal_%d", col), em, memLoad+memTarget)
			obj = obj.Plus(tm, 2*balanceWeight)
		}
	}

	seen := make(map[[2]int]bool)
	for _, v := range nodes {
		for _, w := range cdg.Neighbors(v) {
			weight := cdg.UndirectedWeight(v, w)
			if weight == 0 {
				continue
			}
			if inRow[w] {
				// Both free: |scaled center difference| via aux var.
				key := [2]int{minInt(v, w), maxInt(v, w)}
				if seen[key] {
					continue
				}
				seen[key] = true
				var e ilp.Expr
				for col := 0; col < c; col++ {
					e = e.Plus(vars[v][col], col*spans[w])
					e = e.Plus(vars[w][col], -col*spans[v])
				}
				hi := (c - 1) * spans[v] * spans[w]
				t := m.AbsVar(fmt.Sprintf("d_%d_%d", v, w), e, hi+1)
				obj = obj.Plus(t, weight)
			} else {
				// Fixed partner: per-column distance to its column set.
				for col := 0; col < c; col++ {
					if d := minColDist(col, cols[w]); d > 0 {
						obj = obj.Plus(vars[v][col], weight*d)
					}
				}
			}
		}
	}
	m.Minimize(obj)

	// Coverage: every column of the row hosts at least one node, when
	// the row has enough span to cover them (paper's many-to-one
	// constraint sum_i v_irc >= 1). Retried without coverage if the
	// spans cannot reach every column.
	totalSpan := 0
	for _, v := range nodes {
		totalSpan += spans[v]
	}
	withCoverage := totalSpan >= c
	if withCoverage {
		for col := 0; col < c; col++ {
			var e ilp.Expr
			for _, v := range nodes {
				e = e.Plus(vars[v][col], 1)
			}
			m.AddGE(e, 1, "coverage")
		}
	}

	res := m.SolveCtx(ctx, ilp.Options{MaxNodes: opts.MaxNodes})
	if cerr := ctx.Err(); cerr != nil {
		// The caller's deadline may have cut the search short: abort
		// rather than settle for its incumbent or the greedy row.
		return nil, false, false, fmt.Errorf("clustermap: row scatter: %w", failure.Classify(cerr))
	}
	hitLimit := res.Status == ilp.Limit

	// The greedy placement both serves as a fallback when the coverage
	// constraint is unsatisfiable and as a safety net when the ILP's
	// node budget ran out on a poor incumbent.
	greedy, gerr := rowGreedy(cdg, nodes, cols, spans, c, opts)
	if !res.Feasible {
		if gerr != nil {
			return nil, false, hitLimit, fmt.Errorf("clustermap: row ILP infeasible (%v) and greedy failed: %w", res.Status, gerr)
		}
		return greedy, true, hitLimit, nil
	}

	out := make(map[int][]int, len(nodes))
	for _, v := range nodes {
		var cs []int
		for col := 0; col < c; col++ {
			if res.Value(vars[v][col]) == 1 {
				cs = append(cs, col)
			}
		}
		sort.Ints(cs)
		out[v] = cs
	}
	if gerr == nil && res.Status == ilp.Limit &&
		evalRowCost(cdg, nodes, greedy, cols, spans, c) < evalRowCost(cdg, nodes, out, cols, spans, c) {
		return greedy, true, hitLimit, nil
	}
	return out, false, hitLimit, nil
}

// evalRowCost scores a candidate column assignment for one row with the
// same ingredients as the row ILP objective: column load balance,
// memory balance, and weighted distance of dependences.
func evalRowCost(cdg *spectral.CDG, nodes []int, assign map[int][]int, cols [][]int, spans []int, c int) int {
	colLoad := make([]int, c)
	memLoad := make([]int, c)
	rowLoad, rowMem := 0, 0
	for _, v := range nodes {
		share := maxInt(1, cdg.Sizes[v]/maxInt(1, len(assign[v])))
		memShare := cdg.MemSize(v) / maxInt(1, len(assign[v]))
		for _, col := range assign[v] {
			colLoad[col] += share
			memLoad[col] += memShare
		}
		rowLoad += cdg.Sizes[v]
		rowMem += cdg.MemSize(v)
	}
	cost := 0
	for col := 0; col < c; col++ {
		cost += balanceWeight * abs(colLoad[col]-rowLoad/c)
		cost += 2 * balanceWeight * abs(memLoad[col]-rowMem/c)
	}
	inRow := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inRow[v] = true
	}
	for _, v := range nodes {
		for _, w := range cdg.Neighbors(v) {
			weight := cdg.UndirectedWeight(v, w)
			var wCols []int
			switch {
			case inRow[w]:
				if w < v {
					continue // count intra-row pairs once
				}
				wCols = assign[w]
			default:
				wCols = cols[w]
			}
			cost += weight * bestColDist(assign[v], wCols)
		}
	}
	return cost
}

// rowGreedy places each node of a row at the contiguous column window
// minimising its fixed-edge cost plus a running load-balance penalty,
// nodes in descending size order.
func rowGreedy(cdg *spectral.CDG, nodes []int, cols [][]int, spans []int, c int, opts Options) (map[int][]int, error) {
	if err := faultinject.Fire(faultinject.SiteGreedy); err != nil {
		return nil, err
	}
	order := append([]int(nil), nodes...)
	sort.Slice(order, func(i, j int) bool {
		if cdg.Sizes[order[i]] != cdg.Sizes[order[j]] {
			return cdg.Sizes[order[i]] > cdg.Sizes[order[j]]
		}
		return order[i] < order[j]
	})
	out := make(map[int][]int, len(nodes))
	colLoad := make([]int, c)
	for _, v := range order {
		share := maxInt(1, cdg.Sizes[v]/maxInt(1, spans[v]))
		bestStart, bestCost := 0, int(^uint(0)>>1)
		for start := 0; start+spans[v] <= c; start++ {
			cost := 0
			for _, w := range cdg.Neighbors(v) {
				weight := cdg.UndirectedWeight(v, w)
				wCols := cols[w]
				if oc, ok := out[w]; ok {
					wCols = oc
				}
				for s := 0; s < spans[v]; s++ {
					cost += weight * minColDist(start+s, wCols)
				}
			}
			for s := 0; s < spans[v]; s++ {
				cost += balanceWeight * colLoad[start+s]
				if opts.NodeCapacity > 0 && colLoad[start+s]+share > opts.NodeCapacity {
					cost += 100 * (colLoad[start+s] + share - opts.NodeCapacity)
				}
			}
			if cost < bestCost {
				bestStart, bestCost = start, cost
			}
		}
		cs := make([]int, spans[v])
		for i := range cs {
			cs[i] = bestStart + i
			colLoad[bestStart+i] += share
		}
		out[v] = cs
	}
	return out, nil
}

func minColDist(col int, set []int) int {
	if len(set) == 0 {
		return 0
	}
	best := abs(col - set[0])
	for _, s := range set[1:] {
		if d := abs(col - s); d < best {
			best = d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fillStats computes occupancy, weighted distance cost, diagonal edge
// count, and load imbalance for a finished mapping.
func (res *Result) fillStats() {
	res.Occupancy = make([][]int, res.R)
	loads := make([][]int, res.R)
	for r := range res.Occupancy {
		res.Occupancy[r] = make([]int, res.C)
		loads[r] = make([]int, res.C)
	}
	for v := 0; v < res.CDG.K; v++ {
		for _, c := range res.Cols[v] {
			res.Occupancy[res.Rows[v]][c]++
			loads[res.Rows[v]][c] += res.CDG.Sizes[v] / len(res.Cols[v])
		}
	}
	avg := res.CDG.TotalNodes() / (res.R * res.C)
	res.LoadImbalance = 0
	for r := range loads {
		for c := range loads[r] {
			res.LoadImbalance += abs(loads[r][c] - avg)
		}
	}
	res.Cost = 0
	res.Diagonals = 0
	for i := 0; i < res.CDG.K; i++ {
		for j := i + 1; j < res.CDG.K; j++ {
			w := res.CDG.UndirectedWeight(i, j)
			if w == 0 {
				continue
			}
			dr := abs(res.Rows[i] - res.Rows[j])
			dc := bestColDist(res.Cols[i], res.Cols[j])
			res.Cost += w * (dr + dc)
			if dr > 0 && dc > 0 {
				res.Diagonals++
			}
		}
	}
}

func bestColDist(a, b []int) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	best := abs(a[0] - b[0])
	for _, x := range a {
		for _, y := range b {
			if d := abs(x - y); d < best {
				best = d
			}
		}
	}
	return best
}

package ilp

import (
	"context"

	"panorama/internal/obs"
)

// Solver-effort metrics. Children are resolved once at init so the
// per-solve cost is a handful of atomic adds.
var (
	mSolvesVec = obs.NewCounterVec("panorama_ilp_solves_total",
		"Branch-and-bound ILP solves by terminal status.", "status")
	mSolveOptimal    = mSolvesVec.With("optimal")
	mSolveInfeasible = mSolvesVec.With("infeasible")
	mSolveLimit      = mSolvesVec.With("limit")

	mNodes = obs.NewCounter("panorama_ilp_nodes_total",
		"Branch-and-bound nodes explored across all ILP solves (the solver's analogue of simplex pivots).")
	mPropagations = obs.NewCounter("panorama_ilp_propagations_total",
		"Constraints examined by bound propagation across all ILP solves (the work below a node; cf. panorama_sat_propagations_total).")
	mIncumbents = obs.NewCounter("panorama_ilp_incumbent_solves_total",
		"ILP solves that produced at least one feasible incumbent.")
)

// record publishes one solve's effort to the process metrics and, when
// the context carries a span, accumulates it there (rows = constraint
// count, cols = variable count, nodes, propagations, incumbents, per-status counts).
func record(ctx context.Context, m *Model, res *Result) {
	switch res.Status {
	case Optimal:
		mSolveOptimal.Inc()
	case Infeasible:
		mSolveInfeasible.Inc()
	default:
		mSolveLimit.Inc()
	}
	mNodes.Add(int64(res.Nodes))
	mPropagations.Add(int64(res.Propagations))
	if res.Feasible {
		mIncumbents.Inc()
	}
	sp := obs.FromContext(ctx)
	if sp == nil {
		return
	}
	sp.Add("ilp.solves", 1)
	sp.Add("ilp.nodes", int64(res.Nodes))
	sp.Add("ilp.propagations", int64(res.Propagations))
	sp.Add("ilp.vars", int64(len(m.vars)))
	sp.Add("ilp.constraints", int64(len(m.cons)))
	if res.Feasible {
		sp.Add("ilp.incumbents", 1)
	}
	switch res.Status {
	case Optimal:
		sp.Add("ilp.optimal", 1)
	case Infeasible:
		sp.Add("ilp.infeasible", 1)
	default:
		sp.Add("ilp.limit", 1)
	}
}

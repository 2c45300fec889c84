// Package spr implements the SPR* lower-level mapper of the paper
// (Algorithm 2): iterative modulo scheduling with least-cost placement
// on the MRRG, PathFinder negotiated-congestion routing, and a
// simulated-annealing placement loop, escalating the II until a valid
// mapping is found.
//
// When guided by Panorama, every DFG node's placement candidates are
// restricted to the CGRA cluster(s) chosen by the higher-level cluster
// mapping (Options.AllowedClusters), which both shrinks the search
// space (faster compilation) and spreads the DFG over the fabric
// (better routability).
package spr

import (
	"context"
	"fmt"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/obs"
	"panorama/internal/verify"
)

// Options tunes the mapper.
type Options struct {
	// MaxII caps II escalation; 0 means DefaultIISlack past MII (see
	// arch.IIRange).
	MaxII int
	// AllowedClusters restricts each DFG node to the given CGRA cluster
	// ids (Panorama guidance). nil, or a nil entry, means unrestricted.
	AllowedClusters [][]int
	// Seed drives the simulated-annealing RNG (deterministic per seed).
	Seed int64

	// RouterIters is the number of PathFinder iterations per routing
	// call (default 12).
	RouterIters int

	// Simulated annealing schedule (defaults: 20 / 0.5 / 0.85).
	SAInitTemp float64
	SAMinTemp  float64
	SACooling  float64
	// SAMovesPerTemp is the move budget per temperature step
	// (default max(16, |V|/3)).
	SAMovesPerTemp int

	// placementJitter adds uniform noise to placement costs so that
	// same-II restarts explore different initial placements. Set
	// internally by the restart loop.
	placementJitter float64
}

// DefaultIISlack is how far past MII the mapper escalates by default.
const DefaultIISlack = 8

func (o *Options) defaults(numNodes int) {
	if o.RouterIters <= 0 {
		o.RouterIters = 12
	}
	if o.SAInitTemp <= 0 {
		o.SAInitTemp = 20
	}
	if o.SAMinTemp <= 0 {
		o.SAMinTemp = 0.5
	}
	if o.SACooling <= 0 || o.SACooling >= 1 {
		o.SACooling = 0.85
	}
	if o.SAMovesPerTemp <= 0 {
		o.SAMovesPerTemp = maxInt(16, numNodes/3)
	}
}

// AttemptStats records one II attempt.
type AttemptStats struct {
	II           int
	Placed       bool // initial placement succeeded
	FinalOveruse int
	SASteps      int
	FailReason   string // why initial placement failed (when !Placed)

	// Search effort spent inside the attempt (also published to the
	// process metrics and the attempt's trace span).
	PFIters   int   // PathFinder negotiation iterations run
	RipUps    int   // sink routes ripped up for renegotiation
	SAMoves   int   // annealing moves attempted
	SAAccepts int   // annealing moves accepted
	Relax     int64 // router Dijkstra edge relaxations examined
}

// Result is the outcome of Map.
type Result struct {
	Success  bool
	MII      int             // max(ResMII, RecMII) lower bound
	II       int             // achieved II (valid when Success)
	Mapping  *verify.Mapping // ModelRouted placement and routes (nil unless Success)
	Attempts []AttemptStats
}

// Map runs Algorithm 2: for each II from MII upward, build the MRRG,
// place, route with PathFinder, and repair with simulated annealing;
// stop at the first II that routes without resource overuse.
func Map(d *dfg.Graph, a *arch.CGRA, opts Options) (*Result, error) {
	return MapCtx(context.Background(), d, a, opts)
}

// MapCtx is Map with cancellation: the context is checked between II
// attempts and annealing restarts, and inside each attempt between
// annealing temperature steps, between PathFinder iterations, and
// every few annealing moves (the units of work that bound how long a
// runaway search can continue past cancellation), and ctx.Err() is
// returned once it fires.
func MapCtx(ctx context.Context, d *dfg.Graph, a *arch.CGRA, opts Options) (*Result, error) {
	if err := d.Freeze(); err != nil {
		return nil, err
	}
	r, err := a.IIRange(d, opts.AllowedClusters, opts.MaxII, DefaultIISlack)
	if err != nil {
		return nil, fmt.Errorf("spr: %w", err)
	}
	opts.defaults(d.NumNodes())
	res := &Result{MII: r.MII}

	// An empty range (arch.IIRange: unsatisfiable restriction, or MaxII
	// below the start) reports failure so callers can relax. QoM is
	// reported against the global MII, like the paper.
	for ii := r.Start; ii <= r.End; ii++ {
		// A near-miss (a few conflicts left) earns fresh restarts with a
		// different annealing trajectory before the II escalates.
		const maxRestarts = 3
		for restart := 0; restart < maxRestarts; restart++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			att, st, err := attemptII(ctx, d, a, ii, restart, &opts)
			if err != nil {
				return nil, err
			}
			res.Attempts = append(res.Attempts, att)
			if st != nil && st.badness() == 0 {
				m := st.extractMapping()
				_, vspan := obs.StartSpan(ctx, "spr.validate")
				err := verify.Check(d, a, m, opts.AllowedClusters)
				vspan.End()
				if err != nil {
					return nil, fmt.Errorf("spr: internal error, invalid mapping at II=%d: %w", ii, err)
				}
				res.Success = true
				res.II = ii
				res.Mapping = m
				return res, nil
			}
			if st == nil {
				if restart == 0 {
					break // placement infeasible; escalate the II
				}
				continue // jittered restart failed to place; try another
			}
			if att.FinalOveruse > 4 {
				break // not close; escalate the II instead
			}
		}
	}
	return res, nil
}

// attemptII runs one place/route/anneal attempt at a fixed II. The
// returned state is nil when initial placement failed.
func attemptII(ctx context.Context, d *dfg.Graph, a *arch.CGRA, ii, restart int, opts *Options) (att AttemptStats, st *state, err error) {
	mAttempts.Inc()
	_, span := obs.StartSpan(ctx, "spr.attempt")
	span.Set("ii", ii)
	span.Set("restart", restart)
	defer func() {
		st.flush(span, &att)
		span.Set("placed", att.Placed)
		span.Set("overuse", att.FinalOveruse)
		if att.FailReason != "" {
			span.Set("failReason", att.FailReason)
		}
		span.End()
	}()

	seeded := *opts
	seeded.Seed = opts.Seed + int64(restart)*7907
	seeded.placementJitter = 0.4 * float64(restart)
	st, err = newState(d, a, ii, &seeded)
	if err != nil {
		return AttemptStats{}, nil, err
	}
	st.ctx = ctx
	att = AttemptStats{II: ii}
	if !st.initialPlacement() {
		if err := ctx.Err(); err != nil {
			return att, nil, err
		}
		att.FailReason = st.failReason
		return att, nil, nil
	}
	att.Placed = true
	st.buildSignals()
	st.routeAll()
	// A cancelled routeAll leaves sinks unattempted (and uncounted), so
	// the state must not be trusted past this point.
	if err := ctx.Err(); err != nil {
		return att, nil, err
	}

	// A mapping drowning in congestion after full negotiation will not
	// be rescued by annealing; escalate the II instead of boiling the
	// ocean (SPR's behaviour here is what made its compile times
	// explode — see Table 1b).
	if st.badness() > maxInt(12, d.NumNodes()/4) {
		att.FinalOveruse = st.badness()
		return att, st, nil
	}

	temp := seeded.SAInitTemp
	stagnant, bestBad := 0, st.badness()
	for st.badness() > 0 && temp > seeded.SAMinTemp {
		if err := ctx.Err(); err != nil {
			return att, nil, err
		}
		att.SASteps += st.saRound(temp)
		st.pathFinderIterations(3)
		temp *= seeded.SACooling
		if b := st.badness(); b < bestBad {
			bestBad, stagnant = b, 0
		} else if stagnant++; stagnant >= 8 {
			break // this II is stuck; escalate instead of boiling
		}
	}
	// Endgame: a handful of residual conflicts often yields to a long
	// negotiation round even when annealing has stagnated.
	if b := st.badness(); b > 0 && b <= 12 {
		if err := ctx.Err(); err != nil {
			return att, nil, err
		}
		st.pathFinderIterations(40)
	}
	att.FinalOveruse = st.badness()
	return att, st, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

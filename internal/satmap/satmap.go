// Package satmap is the SAT-backed lower-level mapper: it encodes
// modulo scheduling of a DFG onto the CGRA as CNF per candidate II and
// searches with the internal/sat CDCL solver, in the spirit of
// SAT-MapIt (Tirelli et al.).
//
// The encoding is kernel-mobility style: per-node placement variables
// (one per candidate PE) and schedule variables (one per cycle offset
// inside a mobility window), with exactly-one, FU-exclusivity,
// result-register-slot, dependence-timing, and routing-reachability
// clauses mirroring the internal/verify constraint families. Routing
// capacity is enforced lazily (CEGAR): a model's placement is routed
// deterministically over the real MRRG with verify's exact stream
// accounting, and when congestion makes a model unroutable a blocking
// clause is added and the solver re-run, up to Options.MaxRefines per
// II. Every produced mapping is self-checked against verify.Check
// before being returned.
//
// II iterates over arch.IIRange (from max(MII, cluster-restriction
// bound) upward) with a per-II conflict budget; budget exhaustion or an
// oversized encoding fails the mapper cleanly (Success == false) so the
// pipeline's degrade ladder can take over.
package satmap

import (
	"context"
	"fmt"
	"time"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/mrrg"
	"panorama/internal/obs"
	"panorama/internal/sat"
	"panorama/internal/verify"
)

// DefaultIISlack is how far past MII the II escalation tries before
// giving up, matching the SPR* default.
const DefaultIISlack = 8

// Default tuning knobs; see Options.
const (
	DefaultMaxConflictsPerII = 20000
	DefaultMaxRefines        = 256
	DefaultMaxClauses        = 1 << 21 // ~2M clauses per encoding
)

// diversifyEvery is how many CEGAR rounds run between phase
// re-randomisations (see encoder.diversifyPhases).
const diversifyEvery = 8

// windowSlack widens each node's mobility window to II+windowSlack
// cycles.
const windowSlack = 4

// Options configures the SAT mapper.
type Options struct {
	// MaxII caps the II escalation (inclusive). 0 means
	// DefaultIISlack past MII (see arch.IIRange).
	MaxII int
	// AllowedClusters restricts each DFG node to the given CGRA
	// cluster ids (Panorama guidance). nil, or a nil entry, means
	// unrestricted.
	AllowedClusters [][]int
	// Seed perturbs the CDCL phase initialisation; results are
	// deterministic for a fixed seed.
	Seed int64
	// MaxConflictsPerII is the solver conflict budget for one II
	// (shared across CEGAR refinements at that II). 0 means the
	// default; negative means unbounded.
	MaxConflictsPerII int64
	// MaxRefines bounds the routing-refinement (blocking-clause)
	// rounds per II. 0 means the default.
	MaxRefines int
	// MaxClauses aborts an attempt whose encoding would exceed this
	// clause estimate, so oversized instances fail fast instead of
	// exhausting memory. 0 means the default.
	MaxClauses int
}

// Attempt records one II attempt for reports and tests.
type Attempt struct {
	II      int
	Status  string // "sat", "unsat", "unknown", "too-large", "route-fail", "infeasible"
	Vars    int
	Clauses int
	Refines int
	Solver  sat.Stats
	Wall    time.Duration
}

// Result is the outcome of a SAT mapping run.
type Result struct {
	Success  bool
	MII      int
	II       int // achieved II (valid when Success)
	Mapping  *verify.Mapping
	Attempts []Attempt
}

// Stats sums the solver effort over all attempts.
func (r *Result) Stats() sat.Stats {
	var total sat.Stats
	for _, at := range r.Attempts {
		total.Conflicts += at.Solver.Conflicts
		total.Propagations += at.Solver.Propagations
		total.Decisions += at.Solver.Decisions
		total.Learned += at.Solver.Learned
		total.Restarts += at.Solver.Restarts
	}
	return total
}

// Refines sums the CEGAR refinement rounds over all attempts.
func (r *Result) Refines() int {
	n := 0
	for _, at := range r.Attempts {
		n += at.Refines
	}
	return n
}

// Map runs the SAT mapper without a deadline.
func Map(d *dfg.Graph, a *arch.CGRA, opts Options) (*Result, error) {
	return MapCtx(context.Background(), d, a, opts)
}

// MapCtx runs the SAT mapper: for each II from the resource/recurrence
// bound upward, encode placement+scheduling as CNF, solve under the
// conflict budget, extract routes, and self-check against the legality
// oracle. A non-nil error is returned only for context cancellation or
// an internal invariant violation; plain infeasibility (budget, size
// gate, II range exhausted) reports Success == false.
func MapCtx(ctx context.Context, d *dfg.Graph, a *arch.CGRA, opts Options) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "satmap.map")
	defer span.End()

	if err := d.Freeze(); err != nil {
		return nil, err
	}
	r, err := a.IIRange(d, opts.AllowedClusters, opts.MaxII, DefaultIISlack)
	if err != nil {
		return nil, fmt.Errorf("satmap: %w", err)
	}
	res := &Result{MII: r.MII}

	for ii := r.Start; ii <= r.End; ii++ {
		if err := ctx.Err(); err != nil {
			mMaps.With("error").Inc()
			return res, err
		}
		at, m, err := attemptII(ctx, d, a, opts, ii)
		res.Attempts = append(res.Attempts, at)
		flushAttempt(span, at)
		if err != nil {
			mMaps.With("error").Inc()
			return res, err
		}
		if m != nil {
			// Self-check: the mapper must never hand an illegal mapping
			// downstream; a violation here is a bug in the encoder or
			// the route extractor, not in the input.
			if verr := verify.Check(d, a, m, opts.AllowedClusters); verr != nil {
				mMaps.With("error").Inc()
				return res, fmt.Errorf("satmap: internal error: produced mapping fails verification: %w", verr)
			}
			res.Success = true
			res.II = ii
			res.Mapping = m
			mMaps.With("ok").Inc()
			span.Add("satmap.ii", int64(ii))
			return res, nil
		}
		if at.Status == "too-large" {
			// Encodings only grow with II; stop escalating.
			break
		}
	}
	mMaps.With("fail").Inc()
	return res, nil
}

// attemptII encodes and solves one candidate II. It returns the
// attempt record and, on success, the decoded, routed mapping. A nil
// mapping with nil error means this II failed cleanly.
func attemptII(ctx context.Context, d *dfg.Graph, a *arch.CGRA, opts Options, ii int) (Attempt, *verify.Mapping, error) {
	start := time.Now()
	at := Attempt{II: ii}
	done := func(status string) (Attempt, *verify.Mapping, error) {
		at.Status = status
		at.Wall = time.Since(start)
		mAttempts.With(status).Inc()
		return at, nil, nil
	}

	cancelled := func(err error) (Attempt, *verify.Mapping, error) {
		at.Status = "cancelled"
		at.Wall = time.Since(start)
		mAttempts.With("cancelled").Inc()
		return at, nil, err
	}
	enc, status, err := newEncoder(ctx, d, a, opts, ii)
	if err != nil {
		return cancelled(err)
	}
	if status != "" {
		return done(status)
	}
	at.Vars = enc.nVars
	est, err := enc.estimateClauses(ctx)
	if err != nil {
		return cancelled(err)
	}
	if est > enc.maxClauses {
		return done("too-large")
	}
	solver, err := enc.build(ctx)
	if err != nil {
		return cancelled(err)
	}
	at.Clauses = enc.clauses

	g, err := mrrg.New(a, ii)
	if err != nil {
		at.Status = "error"
		at.Wall = time.Since(start)
		return at, nil, err
	}
	if err := ctx.Err(); err != nil {
		return cancelled(err)
	}

	maxRefines := opts.MaxRefines
	if maxRefines == 0 {
		maxRefines = DefaultMaxRefines
	}
	for refine := 0; ; refine++ {
		// One conflict budget is shared by every CEGAR round at this II.
		if enc.budget > 0 {
			remaining := enc.budget - solver.Stats().Conflicts
			if remaining <= 0 {
				return done("unknown")
			}
			solver.SetMaxConflicts(remaining)
		}
		st, serr := solver.Solve(ctx)
		at.Solver = solver.Stats()
		if serr != nil {
			at.Status = "cancelled"
			at.Wall = time.Since(start)
			mAttempts.With("cancelled").Inc()
			return at, nil, serr
		}
		switch st {
		case sat.StatusUnsat:
			return done("unsat")
		case sat.StatusUnknown:
			return done("unknown")
		}
		placePE, placeT := enc.decode(solver)
		routes, failCore, ok := extractRoutes(d, g, ii, placePE, placeT)
		if ok {
			at.Status = "sat"
			at.Wall = time.Since(start)
			mAttempts.With("sat").Inc()
			return at, &verify.Mapping{
				Model:   verify.ModelRouted,
				II:      ii,
				PlacePE: placePE,
				PlaceT:  placeT,
				Routes:  routes,
			}, nil
		}
		if refine >= maxRefines {
			return done("route-fail")
		}
		at.Refines++
		mRefines.Inc()
		enc.blockModel(solver, placePE, placeT, failCore)
		if at.Refines%diversifyEvery == 0 {
			// Under phase saving the solver keeps re-proposing the same
			// congested neighbourhood; periodically restart the model
			// stream from fresh random phases (see diversifyPhases).
			enc.diversifyPhases(solver, at.Refines)
		}
	}
}

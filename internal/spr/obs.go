package spr

import "panorama/internal/obs"

// SPR* search-effort metrics, flushed once per II attempt (the hot
// loops count locally in the attempt state).
var (
	mAttempts = obs.NewCounter("panorama_spr_attempts_total",
		"SPR* II attempts (one place/route/anneal pass at a fixed II).")
	mPFIters = obs.NewCounter("panorama_spr_pathfinder_iterations_total",
		"PathFinder negotiation iterations across all SPR* attempts.")
	mRipups = obs.NewCounter("panorama_spr_ripups_total",
		"Sink routes ripped up and renegotiated across all SPR* attempts.")
	mSAMoves = obs.NewCounter("panorama_spr_sa_moves_total",
		"Simulated-annealing placement moves attempted across all SPR* attempts.")
	mSAAccepts = obs.NewCounter("panorama_spr_sa_accepts_total",
		"Simulated-annealing moves accepted across all SPR* attempts.")
	mRelax = obs.NewCounter("panorama_spr_relaxations_total",
		"Router Dijkstra edge relaxations examined across all SPR* attempts.")
	mUnroutedSinks = obs.NewCounter("panorama_spr_unrouted_sinks_total",
		"Router sink searches (with their wrap retries) that left the sink unrouted across all SPR* attempts.")
	mUnroutedRelax = obs.NewCounter("panorama_spr_unrouted_relaxations_total",
		"Router edge relaxations spent by the sink searches that left their sink unrouted.")
)

// flush publishes one attempt's locally-accumulated search effort to
// the process metrics and the attempt span, then folds it into the
// AttemptStats the caller reports.
func (st *state) flush(span *obs.Span, att *AttemptStats) {
	if st == nil {
		return
	}
	att.PFIters = st.pfIters
	att.RipUps = st.ripups
	att.SAMoves = st.saMoves
	att.SAAccepts = st.saAccepts
	att.Relax = st.relax
	mPFIters.Add(int64(st.pfIters))
	mRipups.Add(int64(st.ripups))
	mSAMoves.Add(int64(st.saMoves))
	mSAAccepts.Add(int64(st.saAccepts))
	mRelax.Add(st.relax)
	mUnroutedSinks.Add(int64(st.unroutedSinks))
	mUnroutedRelax.Add(st.unroutedRelax)
	span.Add("pathfinder.iterations", int64(st.pfIters))
	span.Add("pathfinder.ripups", int64(st.ripups))
	span.Add("sa.moves", int64(st.saMoves))
	span.Add("sa.accepts", int64(st.saAccepts))
	span.Add("router.relaxations", st.relax)
	span.Add("router.unrouted_sinks", int64(st.unroutedSinks))
	span.Add("router.unrouted_relaxations", st.unroutedRelax)
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/failure"
)

// Cluster integration: the consistent-hash ring (internal/cluster)
// assigns every fingerprint an owner peer, and forwarding happens at
// the EXECUTION layer, not the HTTP layer. A non-owner still admits,
// journals and streams the job exactly as a standalone server would;
// only runAttempt delegates the computation to the owner with a
// wait=true POST /v1/map carrying the single-hop guard header. The
// owner's own coalescing (Server.flight) then merges concurrent
// forwards of one fingerprint from the whole fleet into a single
// pipeline execution, and the origin caches the owner's answer in its
// local LRU — the opportunistic peer fill. Batch items forward the
// same way, one by one, since a batch can span owners.

// recentFingerprintCap bounds the completed-fingerprint ring gossiped
// via /v1/cluster/statsz.
const recentFingerprintCap = 32

// forwardGrace is how long past the job's own budget a forward may
// run: the owner's queue wait and the transfer of the request and the
// answer. It is not measured; a forward that outlives it is not
// charged to the owner (see cluster.Cluster.Forward).
const forwardGrace = 30 * time.Second

// gossipFillPerRound bounds how many cache entries one gossip round
// pulls from one peer, so a cold node warms gradually instead of
// stampeding its peers.
const gossipFillPerRound = 8

// rememberFingerprint records a completed fingerprint for the gossip
// surface (newest last, bounded).
func (s *Server) rememberFingerprint(fp string) {
	s.recentMu.Lock()
	defer s.recentMu.Unlock()
	s.recent = append(s.recent, fp)
	if len(s.recent) > recentFingerprintCap {
		s.recent = s.recent[len(s.recent)-recentFingerprintCap:]
	}
}

// recentFingerprints snapshots the gossip ring.
func (s *Server) recentFingerprints() []string {
	s.recentMu.Lock()
	defer s.recentMu.Unlock()
	out := make([]string, len(s.recent))
	copy(out, s.recent)
	return out
}

// handleClusterStats serves GET /v1/cluster/statsz: this peer's ring
// view, health bookkeeping and recently completed fingerprints. It
// answers on standalone servers too (with an empty cluster section) so
// probes and dashboards need no special casing.
func (s *Server) handleClusterStats(w http.ResponseWriter, _ *http.Request) {
	var cs cluster.Stats
	if s.opts.Cluster != nil {
		cs = s.opts.Cluster.Stats()
	}
	writeJSON(w, http.StatusOK, cluster.Statsz{
		Cluster:      cs,
		Draining:     s.isDraining(),
		CacheEntries: s.cache.Len(),
		Recent:       s.recentFingerprints(),
	})
}

// shouldForward decides whether job's run belongs on another peer: the
// ring must be live, the job must not itself be a forward (single hop)
// and must have a budget, and the owner must be a healthy remote peer.
// A job with no budget runs where it lands: its forward would have no
// deadline, so an owner that accepts it and never answers would hold
// the job and this worker forever.
func (s *Server) shouldForward(job *Job) (string, bool) {
	cl := s.opts.Cluster
	if cl == nil || !cl.Enabled() {
		return "", false
	}
	if job.Origin() != "" || job.Budgets.Total <= 0 {
		return "", false
	}
	owner := cl.Owner(job.Fingerprint)
	if owner == "" || cl.IsSelf(owner) || !cl.Healthy(owner) {
		return "", false
	}
	return owner, true
}

// forwardRequest rebuilds the wire request for a job so an owner on
// the same CodeVersion resolves it to the same fingerprint: the graph
// as canonical DFG JSON, the architecture as a full description, and
// the total budget as timeoutMS. An owner on another CodeVersion
// resolves it to another fingerprint, and forwardAttempt refuses its
// answer.
func forwardRequest(job *Job) ([]byte, error) {
	dfgJSON, err := json.Marshal(job.req.graph)
	if err != nil {
		return nil, fmt.Errorf("service: forward %s: %w", job.ID, err)
	}
	var ab bytes.Buffer
	if err := job.req.arch.WriteJSON(&ab); err != nil {
		return nil, fmt.Errorf("service: forward %s: %w", job.ID, err)
	}
	wire := Request{
		DFG:      dfgJSON,
		ArchDesc: ab.Bytes(),
		Mapper:   job.Mapper,
		Seed:     job.Seed,
		Wait:     true,
		// Only a job with a budget is forwarded (see shouldForward).
		TimeoutMS: int64(job.Budgets.Total / time.Millisecond),
	}
	return json.Marshal(&wire)
}

// forwardContext bounds a forward by the job's own budget: the owner
// runs the job under the same Budgets.Total, so the forward may take
// that long plus forwardGrace. Only a job with a budget is forwarded
// (see shouldForward).
func forwardContext(ctx context.Context, b core.Budgets) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, b.Total+forwardGrace)
}

// forwardAttempt delegates the job's run to the ring owner. handled
// reports whether the forward concluded the run (remote success or a
// typed remote failure); when false the caller runs the job locally —
// the owner was down, misdirected, or refused admission.
func (s *Server) forwardAttempt(ctx context.Context, job *Job, owner string) (core.Summary, error, bool) {
	tr := job.startTrace()
	sp := tr.Root().Child("cluster.forward")
	sp.Set("peer", owner)
	defer tr.Root().End()
	// unhandled is every exit that leaves the run to the local
	// executor: nothing usable came back from the owner.
	unhandled := func(outcome string) (core.Summary, error, bool) {
		sp.Set("outcome", outcome)
		sp.End()
		s.met.forwardFallback.Inc()
		return core.Summary{}, nil, false
	}

	body, err := forwardRequest(job)
	if err != nil {
		log.Printf("service: %v; running locally", err)
		return unhandled("bad-request")
	}
	ctx, cancel := forwardContext(ctx, job.Budgets)
	defer cancel()
	status, data, err := s.opts.Cluster.Forward(ctx, owner, "/v1/map", body)
	if err != nil {
		// Transport failure, infrastructure refusal or deadline: typed
		// ErrPeerDown from the cluster layer, which did the health
		// bookkeeping.
		log.Printf("service: job %s: %v; running locally", job.ID, err)
		return unhandled("peer-down")
	}
	var view JobView
	if derr := json.Unmarshal(data, &view); derr != nil {
		log.Printf("service: job %s: owner %s answered undecodable %d; running locally", job.ID, owner, status)
		return unhandled("bad-response")
	}

	switch {
	case status == http.StatusOK && view.Result != nil && view.Fingerprint != job.Fingerprint:
		// An owner on another CodeVersion computed a different key; its
		// result must not be cached under ours.
		log.Printf("service: job %s: owner %s answered fingerprint %s, want %s; running locally",
			job.ID, owner, view.Fingerprint, job.Fingerprint)
		return unhandled("fingerprint-mismatch")
	case status == http.StatusOK && view.Result != nil:
		sp.Set("outcome", "ok")
		sp.Set("remoteJob", view.ID)
		sp.End()
		s.met.forwarded.Inc()
		return *view.Result, nil, true
	case status == http.StatusMisdirectedRequest:
		// The owner's ring disagrees about ownership (mid-reconfiguration
		// fleet). One hop only: run locally.
		return unhandled("misdirected")
	case view.Error != nil:
		// A typed remote failure is a real outcome, not a peer problem:
		// propagate it through the same taxonomy a local run would use,
		// salvaging any partial summary.
		sp.Set("outcome", "remote-"+view.Error.Class)
		sp.End()
		s.met.forwarded.Inc()
		var sum core.Summary
		if view.Result != nil {
			sum = *view.Result
		}
		// Rebuilt from its class, so the origin's journal note and HTTP
		// status see the failure the owner saw.
		return sum, failure.FromClass(view.Error.Class, "remote: "+view.Error.Message), true
	default:
		// 202 (our wait was cut short), 429, or any other anomaly:
		// nothing usable came back; run locally.
		return unhandled(fmt.Sprintf("status-%d", status))
	}
}

// gossipLoop periodically probes every remote peer's
// /v1/cluster/statsz: the probe outcome drives the peer's health in
// internal/cluster (a down owner recovers through a successful probe,
// this loop's or the background one internal/cluster sends after each
// cooldown), and the answer's recent-fingerprint list feeds the
// opportunistic cache fill. Runs until Shutdown.
func (s *Server) gossipLoop() {
	defer s.gossipWG.Done()
	t := time.NewTicker(s.opts.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-s.gossipStop:
			return
		case <-t.C:
		}
		s.gossipRound()
	}
}

// gossipRound probes each remote peer once and pulls a bounded number
// of missing cache entries from it.
func (s *Server) gossipRound() {
	cl := s.opts.Cluster
	for _, peer := range cl.RemotePeers() {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.opts.GossipInterval)
		sz, err := cl.Probe(ctx, peer)
		if err != nil {
			cancel()
			continue
		}
		filled := 0
		for _, fp := range sz.Recent {
			if filled >= gossipFillPerRound {
				break
			}
			if _, ok := s.cache.Get(fp); ok {
				continue
			}
			if s.fillFromPeer(ctx, peer, fp) {
				filled++
			}
		}
		cancel()
	}
}

// fillFromPeer pulls one cached result from peer into the local LRU.
func (s *Server) fillFromPeer(ctx context.Context, peer, fp string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/result/"+fp, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var e Entry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Fingerprint != fp {
		return false
	}
	if err := s.cache.Put(e); err != nil {
		log.Printf("service: gossip fill: %v", err)
	}
	s.met.gossipFilled.Inc()
	return true
}

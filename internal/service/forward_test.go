package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/failure"
)

// peerPair wires two servers into a shared two-node ring and reports
// per-peer execution counts. Each server's executor stamps the
// summary's Kernel with the peer's name so tests can see where a job
// actually ran.
type peerPair struct {
	srvA, srvB   *Server
	tsA, tsB     *httptest.Server
	clA, clB     *cluster.Cluster
	execA, execB atomic.Int64
}

func newPeerPair(t *testing.T, runB RunFunc) *peerPair {
	t.Helper()
	p := &peerPair{}
	mk := func(name string, execs *atomic.Int64, run RunFunc, cl *cluster.Cluster) *Server {
		if run == nil {
			run = func(ctx context.Context, job *Job) (core.Summary, error) {
				execs.Add(1)
				return core.Summary{Kernel: "ran-on-" + name, Success: true}, nil
			}
		} else {
			inner := run
			run = func(ctx context.Context, job *Job) (core.Summary, error) {
				execs.Add(1)
				return inner(ctx, job)
			}
		}
		srv, err := New(Options{Workers: 1, QueueSize: 16, Run: run, Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	p.clA = cluster.New(cluster.Config{FailThreshold: 1})
	p.clB = cluster.New(cluster.Config{FailThreshold: 1})
	p.srvA = mk("A", &p.execA, nil, p.clA)
	p.srvB = mk("B", &p.execB, runB, p.clB)
	p.tsA = httptest.NewServer(p.srvA.Handler())
	p.tsB = httptest.NewServer(p.srvB.Handler())
	peers := []string{p.tsA.URL, p.tsB.URL}
	p.clA.Configure(p.tsA.URL, peers)
	p.clB.Configure(p.tsB.URL, peers)
	t.Cleanup(func() {
		p.srvA.Shutdown(context.Background())
		p.srvB.Shutdown(context.Background())
		p.tsA.Close()
		p.tsB.Close()
	})
	return p
}

// requestOwnedBy scans seeds (from startSeed up) for a request whose
// fingerprint the given peer owns, so tests can aim jobs at either
// side of the ring.
func (p *peerPair) requestOwnedBy(t *testing.T, owner string, startSeed int64) (string, string) {
	t.Helper()
	return requestOwnedBy(t, p.srvA, p.clA, owner, "ultrafast", startSeed)
}

// requestOwnedBy scans seeds (from startSeed up) for a request on
// mapper whose fingerprint, as srv resolves it, cl places on owner.
func requestOwnedBy(t *testing.T, srv *Server, cl *cluster.Cluster, owner, mapper string, startSeed int64) (string, string) {
	t.Helper()
	for seed := startSeed; seed < startSeed+200; seed++ {
		body := fmt.Sprintf(`{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":%q,"seed":%d,"wait":true}`, mapper, seed)
		res, err := srv.resolve(&Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: mapper, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if cl.Owner(res.fingerprint) == owner {
			return body, res.fingerprint
		}
	}
	t.Fatal("no seed found owned by " + owner)
	return "", ""
}

// The tentpole path: a job submitted to the non-owner is executed on
// the ring owner exactly once, the origin answers its client with the
// owner's result, and the origin's LRU is peer-filled so a repeat is a
// local cache hit.
func TestForwardToOwner(t *testing.T) {
	p := newPeerPair(t, nil)
	body, fp := p.requestOwnedBy(t, p.tsB.URL, 1) // B owns it; submit to A

	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Result == nil {
		t.Fatalf("forwarded map: status %d view %+v", code, view)
	}
	if view.Result.Kernel != "ran-on-B" {
		t.Fatalf("job ran on %q, want the owner B", view.Result.Kernel)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 1 {
		t.Fatalf("executions A=%d B=%d, want 0/1", a, b)
	}
	// The owner resolved the forwarded wire request to the same
	// fingerprint — the property fleet-wide exactly-once rests on.
	if _, ok := p.srvB.Cache().Get(fp); !ok {
		t.Fatalf("owner cache has no entry for origin fingerprint %s", fp)
	}
	// Opportunistic peer fill: the origin cached the owner's answer.
	if _, ok := p.srvA.Cache().Get(fp); !ok {
		t.Fatal("origin cache not peer-filled from the owner response")
	}
	stA, stB := p.srvA.Stats(), p.srvB.Stats()
	if stA.ClusterForwarded != 1 || stA.ClusterFallback != 0 {
		t.Errorf("origin stats: forwarded=%d fallback=%d, want 1/0", stA.ClusterForwarded, stA.ClusterFallback)
	}
	if stB.ClusterOriginJobs != 1 {
		t.Errorf("owner stats: originJobs=%d, want 1", stB.ClusterOriginJobs)
	}

	// A repeat of the same request at the origin is now a cache hit:
	// no new execution anywhere.
	code, view = postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Cache != "hit" {
		t.Fatalf("repeat: status %d cache %q, want 200 hit", code, view.Cache)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 1 {
		t.Fatalf("repeat executions A=%d B=%d, want 0/1", a, b)
	}
}

// A job the local peer owns never leaves the node.
func TestOwnerRunsLocally(t *testing.T) {
	p := newPeerPair(t, nil)
	body, _ := p.requestOwnedBy(t, p.tsA.URL, 1)
	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-on-A" {
		t.Fatalf("local map: status %d view %+v", code, view)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 1 || b != 0 {
		t.Fatalf("executions A=%d B=%d, want 1/0", a, b)
	}
}

// The single-hop guard: a peer that receives a forwarded request it
// does not own answers 421 instead of forwarding again.
func TestForwardLoopGuard(t *testing.T) {
	p := newPeerPair(t, nil)
	body, _ := p.requestOwnedBy(t, p.tsB.URL, 1) // A does NOT own it

	req, err := http.NewRequest(http.MethodPost, p.tsA.URL+"/v1/map", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwardedFrom, "http://some-peer:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("second hop: status %d, want 421", resp.StatusCode)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 0 {
		t.Fatalf("guard executed something: A=%d B=%d", a, b)
	}
	if st := p.srvA.Stats(); st.ClusterMisdirected != 1 {
		t.Errorf("misdirected=%d, want 1", st.ClusterMisdirected)
	}
}

// Owner unreachable: the origin falls back to local execution within
// the same attempt, the client still gets a result, and the peer
// breaker marks the owner down so the next job skips the forward.
func TestForwardOwnerDownFallback(t *testing.T) {
	p := newPeerPair(t, nil)
	body, _ := p.requestOwnedBy(t, p.tsB.URL, 1)
	p.tsB.Close() // the owner is gone

	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-on-A" {
		t.Fatalf("fallback map: status %d view %+v", code, view)
	}
	if a := p.execA.Load(); a != 1 {
		t.Fatalf("executions A=%d, want 1 (local fallback)", a)
	}
	if p.clA.Healthy(p.tsB.URL) {
		t.Error("dead owner still marked healthy at FailThreshold 1")
	}
	st := p.srvA.Stats()
	if st.ClusterFallback != 1 || st.ClusterForwarded != 0 {
		t.Errorf("stats fallback=%d forwarded=%d, want 1/0", st.ClusterFallback, st.ClusterForwarded)
	}
	if st.ClusterPeersDown != 1 {
		t.Errorf("peersDown=%d, want 1", st.ClusterPeersDown)
	}

	// Second job owned by the down peer: the health check skips the
	// forward entirely — no new fallback, straight to local.
	body2, _ := p.requestOwnedBy(t, p.tsB.URL, 1000)
	code, _ = postMap(t, p.tsA.URL, body2)
	if code != http.StatusOK {
		t.Fatalf("second map: status %d", code)
	}
	if st := p.srvA.Stats(); st.ClusterFallback != 1 {
		t.Errorf("down-peer forward attempted again: fallback=%d, want still 1", st.ClusterFallback)
	}
}

// A typed remote failure is an outcome, not a peer problem: the origin
// reports the owner's failure class to its client and does not mark
// the peer down.
func TestForwardRemoteTypedError(t *testing.T) {
	p := newPeerPair(t, func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{}, fmt.Errorf("%w: no placement at any II", failure.ErrInfeasible)
	})
	body, _ := p.requestOwnedBy(t, p.tsB.URL, 1)

	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("remote infeasible: status %d, want 422", code)
	}
	if view.Error == nil || view.Error.Class != "infeasible" {
		t.Fatalf("remote infeasible: error %+v, want class infeasible", view.Error)
	}
	// Infeasible is terminal: the origin must not burn local attempts
	// re-proving it.
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 1 {
		t.Fatalf("executions A=%d B=%d, want 0/1", a, b)
	}
	if !p.clA.Healthy(p.tsB.URL) {
		t.Error("typed remote failure tripped the peer breaker")
	}
}

// A budget failure on the owner is the fleet's answer: the origin
// reports 504, and no peer caches anything under the fingerprint —
// neither the origin from the forward response nor the owner from a
// gossip fill of the origin's entry.
func TestForwardNeverCachesAnotherMappersResult(t *testing.T) {
	p := newPeerPair(t, func(ctx context.Context, job *Job) (core.Summary, error) {
		if job.Mapper == "pan-spr" {
			return core.Summary{}, failure.Stage("lower", fmt.Errorf("spr: %w", failure.ErrBudget))
		}
		return core.Summary{Kernel: "cheaper", Success: true, MII: 1, II: 9}, nil
	})
	body, fp := requestOwnedBy(t, p.srvA, p.clA, p.tsB.URL, "pan-spr", 1) // B owns it; submit to A

	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusGatewayTimeout || view.Error == nil || view.Error.Class != failure.ClassBudget {
		t.Fatalf("forwarded over-budget map: status %d view %+v, want 504 class budget", code, view)
	}
	if _, ok := p.srvA.Cache().Get(fp); ok {
		t.Fatal("origin cached a result under the pan-spr fingerprint")
	}
	// One gossip round from the owner (the loop is off, so set the
	// per-peer probe timeout a round uses).
	p.srvB.opts.GossipInterval = 5 * time.Second
	p.srvB.gossipRound()
	if _, ok := p.srvB.Cache().Get(fp); ok {
		t.Fatal("owner gossip-filled a result under the pan-spr fingerprint")
	}
}

// A 200 whose fingerprint is not the job's (an owner on another
// CodeVersion keys the same request differently) is not this job's
// answer: the origin runs the job itself and counts the fallback.
func TestForwardFingerprintMismatchRunsLocally(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(JobView{ID: "j-other", Fingerprint: "other-code-version", Mapper: "ultrafast",
			Status: JobDone, Result: &core.Summary{Kernel: "ran-on-fake", Success: true}})
	}))
	defer fake.Close()
	var execs atomic.Int64
	cl := cluster.New(cluster.Config{FailThreshold: 1})
	srv, err := New(Options{Workers: 1, QueueSize: 4, Cluster: cl,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			execs.Add(1)
			return core.Summary{Kernel: "ran-locally", Success: true}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { srv.Shutdown(context.Background()); ts.Close() }()
	cl.Configure(ts.URL, []string{ts.URL, fake.URL})
	body, fp := requestOwnedBy(t, srv, cl, fake.URL, "ultrafast", 1)

	code, view := postMap(t, ts.URL, body)
	if code != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-locally" {
		t.Fatalf("mismatched forward: status %d view %+v, want the local result", code, view)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("local executions = %d, want 1", n)
	}
	if e, ok := srv.Cache().Get(fp); !ok || e.Summary.Kernel != "ran-locally" {
		t.Fatalf("cache under %s: %+v (present %v), want the local result", fp, e.Summary, ok)
	}
	if st := srv.Stats(); st.ClusterFallback != 1 || st.ClusterForwarded != 0 {
		t.Errorf("stats fallback=%d forwarded=%d, want 1/0", st.ClusterFallback, st.ClusterForwarded)
	}
}

// Gossip probing recovers a down peer and opportunistically fills the
// local cache from the peer's recent completions.
func TestGossipRecoveryAndCacheFill(t *testing.T) {
	// Server B completes a job; server A gossips and pulls the entry.
	// B runs standalone (no cluster): ring ownership depends on the
	// ephemeral listen ports, and if B forwarded the seed job to A the
	// entry would land in A's cache by execution, making the gossip
	// fill unobservable. A standalone B always executes locally — and
	// /v1/cluster/statsz serves Recent either way.
	clA := cluster.New(cluster.Config{FailThreshold: 1})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "warm", Success: true}, nil
	}
	srvB, err := New(Options{Workers: 1, QueueSize: 4, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer func() { srvB.Shutdown(context.Background()); tsB.Close() }()

	srvA, err := New(Options{Workers: 1, QueueSize: 4, Run: run, Cluster: clA,
		GossipInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	defer func() { srvA.Shutdown(context.Background()); tsA.Close() }()

	clA.Configure(tsA.URL, []string{tsA.URL, tsB.URL})

	// B completes a job locally (no forwarding: A's gossip is what we
	// are testing, so submit straight to B).
	code, view := postMap(t, tsB.URL, `{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"ultrafast","seed":7,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("seed job: status %d", code)
	}
	fp := view.Fingerprint

	// Mark B down at A; a successful probe must recover it.
	clA.ReportFailure(tsB.URL)
	if clA.Healthy(tsB.URL) {
		t.Fatal("setup: B should be down at A")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, filled := srvA.Cache().Get(fp)
		if filled && clA.Healthy(tsB.URL) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never recovered peer (healthy=%v) or filled cache (filled=%v)",
				clA.Healthy(tsB.URL), filled)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := srvA.Stats(); st.ClusterGossipFill < 1 {
		t.Errorf("gossipFill=%d, want ≥1", st.ClusterGossipFill)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
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

// forwardBudgets bounds the jobs of the forwarding tests: only a job
// with a budget is forwarded (see shouldForward).
var forwardBudgets = core.Budgets{Total: time.Minute}

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
		srv, err := New(Options{Workers: 1, QueueSize: 16, Run: run, Cluster: cl, Budgets: forwardBudgets})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	p.clA = cluster.New(cluster.Config{})
	p.clB = cluster.New(cluster.Config{})
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
// the same attempt and the client still gets a result; after three
// failed forwards the peer breaker marks the owner down, so the next
// job skips the forward.
func TestForwardOwnerDownFallback(t *testing.T) {
	const failures = 3 // cluster's failThreshold
	p := newPeerPair(t, nil)
	p.tsB.Close() // the owner is gone

	for i := int64(1); i <= failures; i++ {
		body, _ := p.requestOwnedBy(t, p.tsB.URL, 1000*i)
		code, view := postMap(t, p.tsA.URL, body)
		if code != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-on-A" {
			t.Fatalf("fallback map %d: status %d view %+v", i, code, view)
		}
		if a := p.execA.Load(); a != i {
			t.Fatalf("executions A=%d, want %d (local fallback)", a, i)
		}
		if healthy := p.clA.Healthy(p.tsB.URL); healthy != (i < failures) {
			t.Fatalf("after %d failed forward(s) the owner reads healthy=%v", i, healthy)
		}
	}
	st := p.srvA.Stats()
	if st.ClusterFallback != failures || st.ClusterForwarded != 0 {
		t.Errorf("stats fallback=%d forwarded=%d, want %d/0", st.ClusterFallback, st.ClusterForwarded, failures)
	}
	if st.ClusterPeersDown != 1 {
		t.Errorf("peersDown=%d, want 1", st.ClusterPeersDown)
	}

	// Next job owned by the down peer: the health check skips the
	// forward entirely — no new fallback, straight to local.
	body, _ := p.requestOwnedBy(t, p.tsB.URL, 1000*(failures+1))
	if code, _ := postMap(t, p.tsA.URL, body); code != http.StatusOK {
		t.Fatalf("map after the owner went down: status %d", code)
	}
	if st := p.srvA.Stats(); st.ClusterFallback != failures {
		t.Errorf("down-peer forward attempted again: fallback=%d, want still %d", st.ClusterFallback, failures)
	}
}

// hungOwner listens on a loopback port, accepts every connection and
// never answers. It returns the peer's URL and a func that closes the
// listener and every held connection.
func hungOwner(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var held []net.Conn // accepted, never answered
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
		}
	}()
	return "http://" + ln.Addr().String(), func() { ln.Close() }
}

// An owner that accepts connections and never answers, once down, gets
// no job: the origin serves every job it owns locally at once, and no
// forward is attempted. (Its recovery runs on a background probe; see
// internal/cluster's TestClusterHungPeerGetsNoJob.)
func TestForwardHungOwnerServedLocally(t *testing.T) {
	hung, closeHung := hungOwner(t)
	defer closeHung()

	var execs atomic.Int64
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		execs.Add(1)
		return core.Summary{Kernel: "ran-locally", Success: true}, nil
	}
	cl := cluster.New(cluster.Config{})
	srv, err := New(Options{Workers: 1, QueueSize: 16, Run: run, Cluster: cl, Budgets: forwardBudgets})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	cl.Configure(ts.URL, []string{ts.URL, hung})
	for i := 0; i < 3; i++ { // cluster's failThreshold
		cl.ReportFailure(hung)
	}

	start := time.Now()
	const jobs = 4
	for i := int64(1); i <= jobs; i++ {
		body, _ := requestOwnedBy(t, srv, cl, hung, "ultrafast", 1000*i)
		code, view := postMap(t, ts.URL, body)
		if code != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-locally" {
			t.Fatalf("job %d owned by the hung peer: status %d view %+v", i, code, view)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("%d local jobs took %v: something waited on the hung owner", jobs, d)
	}
	if n := execs.Load(); n != jobs {
		t.Errorf("local executions = %d, want %d", n, jobs)
	}
	if st := srv.Stats(); st.ClusterFallback != 0 || st.ClusterForwarded != 0 {
		t.Errorf("fallback=%d forwarded=%d, want 0/0 (no forward attempted)", st.ClusterFallback, st.ClusterForwarded)
	}
	if st := cl.Stats(); st.Forwards != 0 || st.PeersDown != 1 {
		t.Errorf("cluster forwards=%d peersDown=%d, want 0/1", st.Forwards, st.PeersDown)
	}
}

// A job with no budget (panoramad -timeout 0) runs where it lands, even
// when its owner reads healthy: its forward would have no deadline, so
// an owner that accepts the connection and never answers would hold
// the job and this worker forever.
func TestForwardUnboundedJobServedLocally(t *testing.T) {
	var execs atomic.Int64
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		execs.Add(1)
		return core.Summary{Kernel: "ran-locally", Success: true}, nil
	}
	cl := cluster.New(cluster.Config{})
	srv, err := New(Options{Workers: 1, QueueSize: 16, Run: run, Cluster: cl}) // Budgets{}: unbounded
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	hung, closeHung := hungOwner(t)
	defer closeHung() // first, so a forward stuck on the hung owner cannot wedge the shutdown
	cl.Configure(ts.URL, []string{ts.URL, hung})
	if !cl.Healthy(hung) {
		t.Fatal("setup: the hung owner should read healthy")
	}

	body, _ := requestOwnedBy(t, srv, cl, hung, "ultrafast", 1)
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("the unbounded job waited on the hung owner: %v", err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-locally" {
		t.Fatalf("unbounded job owned by the hung peer: status %d view %+v", resp.StatusCode, view)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("local executions = %d, want 1", n)
	}
	if st := cl.Stats(); st.Forwards != 0 {
		t.Errorf("cluster forwards = %d, want 0", st.Forwards)
	}
}

// A forward may run as long as the job's own budget plus forwardGrace,
// not a fixed cap below the budget; a job with no budget is not
// forwarded at all, since its forward would have no deadline.
func TestForwardDeadlineFollowsJobBudget(t *testing.T) {
	const total = 5 * time.Minute
	before := time.Now()
	ctx, cancel := forwardContext(context.Background(), core.Budgets{Total: total})
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || dl.Before(before.Add(total+forwardGrace)) || dl.After(time.Now().Add(total+forwardGrace)) {
		t.Fatalf("forward deadline %v (set %v), want budget %v + grace %v from now", dl, ok, total, forwardGrace)
	}

	p := newPeerPair(t, nil)
	_, fp := p.requestOwnedBy(t, p.tsB.URL, 1)
	job := &Job{ID: "j-test", Fingerprint: fp, Budgets: forwardBudgets}
	if owner, ok := p.srvA.shouldForward(job); !ok || owner != p.tsB.URL {
		t.Fatalf("bounded job: shouldForward = %q, %v; want %q, true", owner, ok, p.tsB.URL)
	}
	job.Budgets = core.Budgets{}
	if owner, ok := p.srvA.shouldForward(job); ok {
		t.Fatalf("unbounded job is forwarded to %q", owner)
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
	cl := cluster.New(cluster.Config{})
	srv, err := New(Options{Workers: 1, QueueSize: 4, Cluster: cl, Budgets: forwardBudgets,
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
	clA := cluster.New(cluster.Config{})
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
	for i := 0; i < 3; i++ { // cluster's failThreshold
		clA.ReportFailure(tsB.URL)
	}
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

package loadtest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/service"
)

// TestFleetSoak drives identical mixed workloads at every peer of a
// 3-node ring concurrently — the worst case for duplication, since
// all three origins mint the same cold specs near-simultaneously —
// and asserts the fleet SLOs: zero failed operations, at most one
// pipeline execution per fingerprint summed across all peers (owner
// coalescing plus forwarding must dedup fleet-wide, not just
// per-node), bounded tails, and no ring disagreement.
func TestFleetSoak(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		N:              3,
		Options:        func(i int) service.Options { return soakOptions() },
		FailThreshold:  3,
		GossipInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close(context.Background())

	// One workload per peer, same seed: deterministic generation means
	// the three op streams are identical item for item.
	wls := make([]*Workload, 3)
	for i := range wls {
		wls[i] = soakWorkload(t, 42, Mix{Single: 60, Batch: 25, SSE: 15}, 0.5)
	}
	reports := make([]*Report, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := Run(context.Background(), RunConfig{
				BaseURL:  f.URLs()[i],
				QPS:      80,
				Duration: 1 * time.Second,
				Ramp:     200 * time.Millisecond,
				Workload: wls[i],
			})
			if err != nil {
				t.Errorf("peer %d Run: %v", i, err)
				return
			}
			reports[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var totalSent int64
	for i, r := range reports {
		if r == nil {
			t.Fatalf("peer %d produced no report", i)
		}
		totalSent += r.Sent
		if r.Failed != 0 || len(r.Errors) != 0 {
			t.Fatalf("peer %d had failures: failed=%d errors=%v", i, r.Failed, r.Errors)
		}
		if r.Done != r.Sent {
			t.Fatalf("peer %d done %d != sent %d", i, r.Done, r.Sent)
		}
		for _, kind := range []string{OpSingle, OpBatch, OpSSE} {
			c := r.Classes[kind]
			if c == nil || c.Count == 0 {
				t.Fatalf("peer %d class %q missing: %+v", i, kind, r.Classes)
			}
			if c.P99MS > 10_000 {
				t.Errorf("peer %d class %q p99 %.1fms exceeds the 10s bound", i, kind, c.P99MS)
			}
		}
	}
	if totalSent < 200 {
		t.Fatalf("fleet sent %d operations, want >= 200", totalSent)
	}

	// Fleet-wide exactly-once: with three origins issuing the same
	// specs, a fingerprint may be submitted at all three peers, but it
	// must execute at most once anywhere — the non-owners forward, the
	// owner coalesces, warm repeats hit caches.
	execs := f.Executions()
	if len(execs) == 0 {
		t.Fatal("fleet executed nothing")
	}
	for fp, n := range execs {
		if n != 1 {
			t.Errorf("fingerprint %s executed %d times fleet-wide, want exactly 1", fp, n)
		}
	}

	// The soak must actually exercise the ring: with 3 peers about 2/3
	// of fingerprints are remote-owned at each origin, so forwards must
	// have happened; and a static, agreed ring must never misdirect.
	var forwarded, misdirected, peersDown int64
	for _, h := range f.Peers {
		st := h.Srv.Stats()
		forwarded += st.ClusterForwarded
		misdirected += st.ClusterMisdirected
		peersDown += int64(st.ClusterPeersDown)
	}
	if forwarded == 0 {
		t.Error("no operation was forwarded; the ring was not exercised")
	}
	if misdirected != 0 {
		t.Errorf("%d forwards misdirected; peers disagree about the ring", misdirected)
	}
	if peersDown != 0 {
		t.Errorf("%d peers marked down during a healthy soak", peersDown)
	}
}

// TestFleetOwnerKillMidJob is the failover e2e: a non-owner forwards
// a job to its ring owner, the owner dies mid-execution, and the
// origin's fallback completes the job locally — the client sees one
// successful answer and the fleet completes the fingerprint exactly
// once (the owner's killed attempt never finishes).
func TestFleetOwnerKillMidJob(t *testing.T) {
	ownerStarted := make(chan struct{}, 8)
	runs := []service.RunFunc{
		// Peer 0 (the surviving origin): instant stub executor.
		func(ctx context.Context, job *service.Job) (core.Summary, error) {
			return core.Summary{Kernel: "ran-on-0", Success: true}, nil
		},
		// Peer 1 (the owner to be killed): wedges until its context is
		// cancelled, simulating a mapping in flight when the peer dies.
		func(ctx context.Context, job *service.Job) (core.Summary, error) {
			select {
			case ownerStarted <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return core.Summary{}, ctx.Err()
		},
	}
	f, err := NewFleet(FleetConfig{
		N: 2,
		Options: func(i int) service.Options {
			return service.Options{Workers: 1, QueueSize: 8, Run: runs[i]}
		},
		FailThreshold: 1, // first transport failure downs the peer
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	origin, owner := f.Peers[0], f.Peers[1]
	defer func() {
		// The owner still holds the wedged job; a pre-cancelled drain
		// context cancels it so shutdown unwinds (Canceled is expected).
		cctx, ccancel := context.WithCancel(context.Background())
		ccancel()
		_ = owner.Close(cctx)
		f.Peers[1] = nil
		if err := f.Close(context.Background()); err != nil {
			t.Errorf("origin shutdown: %v", err)
		}
	}()

	// Find a spec peer 1 owns, using a ringless solo server with the
	// same options shape: fingerprints are content-addressed, so the
	// solo server resolves each candidate to the same fingerprint the
	// fleet will.
	solo, err := NewHarness(service.Options{Workers: 1, QueueSize: 8, Run: runs[0]})
	if err != nil {
		t.Fatalf("solo NewHarness: %v", err)
	}
	defer solo.Close(context.Background())
	var victim Item
	var victimFP string
	for seed := int64(1); seed <= 200; seed++ {
		it := Item{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "ultrafast", Seed: seed}
		jv := mapOnce(t, solo.URL(), it)
		if f.OwnerIndex(jv.Fingerprint) == 1 {
			victim, victimFP = it, jv.Fingerprint
			break
		}
	}
	if victimFP == "" {
		t.Fatal("no fingerprint owned by peer 1 in 200 seeds")
	}

	// Submit at the non-owner; it forwards and blocks on the owner.
	type answer struct{ jv service.JobView }
	got := make(chan answer, 1)
	go func() {
		got <- answer{mapOnce(t, origin.URL(), victim)}
	}()
	select {
	case <-ownerStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("owner never started the forwarded job")
	}

	// Kill the owner mid-job: sever every connection, including the
	// in-flight forward. The origin's forward fails, the breaker downs
	// the peer, and the same attempt falls back to local execution.
	owner.TS.CloseClientConnections()

	ans := <-got
	if ans.jv.Result == nil || ans.jv.Result.Kernel != "ran-on-0" {
		t.Fatalf("fallback answer %+v, want local ran-on-0 result", ans.jv)
	}
	if ans.jv.Fingerprint != victimFP {
		t.Fatalf("answered fingerprint %s, want %s", ans.jv.Fingerprint, victimFP)
	}

	// Exactly-once across the failover: the origin completed it, the
	// owner's killed attempt did not, and nobody ran it twice.
	if n := origin.Completions()[victimFP]; n != 1 {
		t.Errorf("origin completed the victim %d times, want 1", n)
	}
	if n := owner.Completions()[victimFP]; n != 0 {
		t.Errorf("killed owner completed the victim %d times, want 0", n)
	}
	if n := origin.Executions()[victimFP]; n != 1 {
		t.Errorf("origin executed the victim %d times, want 1", n)
	}

	st := origin.Srv.Stats()
	if st.ClusterFallback != 1 {
		t.Errorf("origin fallbacks = %d, want 1", st.ClusterFallback)
	}
	if st.ClusterPeersDown != 1 {
		t.Errorf("origin sees %d peers down, want 1", st.ClusterPeersDown)
	}
}

// TestScrapeFleetMatchesStats is the tier-1 cover for the scrape
// `panoramaload -fleet` judges its SLOs on (the binary itself only runs
// in the nightly job): against two in-process peers, the counts summed
// off the /metricsz bodies equal the sums of the peers' own Stats().
func TestScrapeFleetMatchesStats(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		N: 2,
		Options: func(i int) service.Options {
			return service.Options{Workers: 1, QueueSize: 8,
				Run: func(ctx context.Context, job *service.Job) (core.Summary, error) {
					return core.Summary{Kernel: "stub", Success: true}, nil
				}}
		},
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close(context.Background())

	// Everything enters at peer 0; the seeds peer 1 owns are forwarded.
	const jobs = 24
	for seed := int64(1); seed <= jobs; seed++ {
		mapOnce(t, f.URLs()[0], Item{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "ultrafast", Seed: seed})
	}

	var want FleetCounts
	for _, h := range f.Peers {
		st := h.Srv.Stats()
		want.Executed += st.Executed
		want.Forwarded += st.ClusterForwarded
		want.Fallback += st.ClusterFallback
		want.Misdirected += st.ClusterMisdirected
	}
	got, err := ScrapeFleet(context.Background(), f.URLs())
	if err != nil {
		t.Fatalf("ScrapeFleet: %v", err)
	}
	if got != want {
		t.Fatalf("scraped %+v, peers' Stats() sum to %+v", got, want)
	}
	if got.Executed != jobs || got.Forwarded == 0 || got.Forwarded == jobs {
		t.Fatalf("%+v: want %d executions split across both peers", got, jobs)
	}

	// A body without the series is a broken scrape, not a quiet fleet.
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer empty.Close()
	if _, err := ScrapeFleet(context.Background(), []string{empty.URL}); err == nil {
		t.Fatal("scraping a peer that exposes none of the series must fail")
	}
}

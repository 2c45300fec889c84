package cluster

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/failure"
)

// TestClusterInertWithoutPeers checks the single-node fast path: a
// cluster with no peers (or no self) never names an owner, so the
// service's forwarding branch is dead code in solo deployments.
func TestClusterInertWithoutPeers(t *testing.T) {
	var nilc *Cluster
	if nilc.Enabled() || nilc.Owner("k") != "" {
		t.Fatal("nil cluster must be inert")
	}
	solo := New(Config{Self: "http://a:1"})
	if solo.Enabled() {
		t.Error("single-peer cluster reports Enabled")
	}
	if got := solo.Owner("k"); got != "" {
		t.Errorf("single-peer Owner = %q, want empty", got)
	}
	unbound := New(Config{Peers: []string{"http://a:1", "http://b:1"}})
	if unbound.Enabled() || unbound.Owner("k") != "" {
		t.Error("cluster without a bound self must be inert")
	}
}

// TestClusterHealthBreaker walks a peer down through consecutive
// failures and back up through a success.
func TestClusterHealthBreaker(t *testing.T) {
	c := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://b:1"}})
	peer := "http://b:1"
	if !c.Healthy(peer) {
		t.Fatal("fresh peer not healthy")
	}
	for i := 0; i < failThreshold-1; i++ {
		if down := c.ReportFailure(peer); down {
			t.Fatalf("peer down after %d failures, threshold %d", i+1, failThreshold)
		}
	}
	if !c.Healthy(peer) {
		t.Fatal("peer down below threshold")
	}
	if down := c.ReportFailure(peer); !down {
		t.Fatal("peer not down at threshold")
	}
	if c.Healthy(peer) {
		t.Fatal("Healthy true for down peer")
	}
	st := c.Stats()
	if st.PeersDown != 1 {
		t.Errorf("PeersDown = %d, want 1", st.PeersDown)
	}
	c.ReportSuccess(peer)
	if !c.Healthy(peer) {
		t.Fatal("peer still down after success")
	}
	// Self is always healthy; unknown peers never are.
	if !c.Healthy("http://a:1") {
		t.Error("self not healthy")
	}
	if c.Healthy("http://stranger:1") {
		t.Error("unknown peer healthy")
	}
}

// downPeer drives failThreshold consecutive failures against peer.
func downPeer(c *Cluster, peer string) {
	for i := 0; i < failThreshold; i++ {
		c.ReportFailure(peer)
	}
}

// backdate moves peer's down time past downCooldown.
func backdate(c *Cluster, peer string) {
	c.mu.Lock()
	c.peers[peer].downSince = time.Now().Add(-downCooldown - time.Second)
	c.mu.Unlock()
}

// waitProbe waits for the background probe of peer to finish.
func waitProbe(t *testing.T, c *Cluster, peer string) {
	t.Helper()
	deadline := time.Now().Add(probeTimeout + 5*time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		probing := c.peers[peer].probing
		c.mu.Unlock()
		if !probing {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background probe still running past probeTimeout")
}

// hungPeer is a peer that accepts connections and never answers.
func hungPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})
	return "http://" + ln.Addr().String()
}

// TestClusterDownPeerIsProbedAfterCooldown: without gossip, a down
// peer is probed in the background once downCooldown has passed, and
// only the probe decides its health — a peer that came back is up
// again, one still failing stays down for another cooldown.
func TestClusterDownPeerIsProbedAfterCooldown(t *testing.T) {
	var back atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !back.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(Statsz{})
	}))
	defer srv.Close()
	c := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", srv.URL}})
	peer := srv.URL
	downPeer(c, peer)
	if c.Healthy(peer) {
		t.Fatal("peer healthy right after going down")
	}
	if st := c.Stats(); st.Probes != 0 {
		t.Fatalf("probed %d times inside the cooldown, want 0", st.Probes)
	}

	// Cooldown over, peer still failing: no caller gets the peer, the
	// probe fails, and the cooldown starts again.
	backdate(c, peer)
	if c.Healthy(peer) {
		t.Fatal("a caller was sent to a down peer to test it")
	}
	waitProbe(t, c, peer)
	if c.Healthy(peer) {
		t.Fatal("failed probe marked the peer up")
	}
	if st := c.Stats(); st.Probes != 1 || st.ProbeErr != 1 {
		t.Fatalf("probes %d/%d errors, want 1/1 (the failed probe restarts the cooldown)", st.Probes, st.ProbeErr)
	}

	// The peer is back: the next probe marks it up for every caller.
	back.Store(true)
	backdate(c, peer)
	c.Healthy(peer)
	waitProbe(t, c, peer)
	for i := 0; i < 2; i++ {
		if !c.Healthy(peer) {
			t.Fatal("peer still down after a successful probe")
		}
	}
	if st := c.Stats(); st.PeersDown != 0 || st.Forwards != 0 {
		t.Errorf("PeersDown=%d Forwards=%d, want 0/0", st.PeersDown, st.Forwards)
	}
}

// TestClusterHungPeerGetsNoJob: a down peer that accepts connections
// and never answers is never handed to a caller after its cooldown —
// every caller keeps getting false and so serves locally — and the
// single background probe gives up at probeTimeout, leaving it down.
func TestClusterHungPeerGetsNoJob(t *testing.T) {
	peer := hungPeer(t)
	c := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", peer}})
	downPeer(c, peer)
	backdate(c, peer)

	var wg sync.WaitGroup
	var granted atomic.Int64
	stop := time.Now().Add(probeTimeout / 2)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if c.Healthy(peer) {
					granted.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if n := granted.Load(); n != 0 {
		t.Fatalf("hung down peer handed to %d callers, want 0", n)
	}
	waitProbe(t, c, peer)
	if c.Healthy(peer) {
		t.Fatal("hung peer marked up")
	}
	if st := c.Stats(); st.Probes != 1 || st.ProbeErr != 1 || st.Forwards != 0 {
		t.Errorf("probes=%d probeErr=%d forwards=%d, want 1/1/0", st.Probes, st.ProbeErr, st.Forwards)
	}
}

// TestClusterConfigurePreservesHealth checks that rebuilding the ring
// keeps the failure streaks of surviving peers.
func TestClusterConfigurePreservesHealth(t *testing.T) {
	c := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://b:1"}})
	downPeer(c, "http://b:1")
	c.Configure("http://a:1", []string{"http://a:1", "http://b:1", "http://c:1"})
	if c.Healthy("http://b:1") {
		t.Error("membership change reset b's down state")
	}
	if !c.Healthy("http://c:1") {
		t.Error("new peer c not healthy")
	}
}

// TestForwardSetsHopGuard checks that the forwarding client carries
// the single-hop header and that HTTP answers (including 421) come
// back without tripping the breaker.
func TestForwardSetsHopGuard(t *testing.T) {
	var gotFrom atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotFrom.Store(r.Header.Get(HeaderForwardedFrom))
		w.WriteHeader(http.StatusMisdirectedRequest)
		w.Write([]byte(`{"error":"not owner"}`))
	}))
	defer srv.Close()
	c := New(Config{Self: "http://origin:1", Peers: []string{"http://origin:1", srv.URL}})
	status, body, err := c.Forward(context.Background(), srv.URL, "/v1/map", []byte(`{}`))
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if status != http.StatusMisdirectedRequest {
		t.Fatalf("status = %d, want 421", status)
	}
	if len(body) == 0 {
		t.Fatal("empty body")
	}
	if got := gotFrom.Load(); got != "http://origin:1" {
		t.Errorf("%s = %q, want origin URL", HeaderForwardedFrom, got)
	}
	if !c.Healthy(srv.URL) {
		t.Error("421 answer tripped the health breaker")
	}
}

// TestForwardPeerDown checks that transport failures and 502/503
// answers surface as typed ErrPeerDown and charge the breaker.
func TestForwardPeerDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	c := New(Config{Self: "http://origin:1", Peers: []string{"http://origin:1", srv.URL}})
	for i := 0; i < failThreshold; i++ {
		if _, _, err := c.Forward(context.Background(), srv.URL, "/v1/map", nil); !failure.IsPeerDown(err) {
			t.Fatalf("503 answer: err = %v, want ErrPeerDown", err)
		}
	}
	if c.Healthy(srv.URL) {
		t.Errorf("%d 503 answers did not down the peer", failThreshold)
	}

	srv.Close() // now a pure transport failure
	c.ReportSuccess(srv.URL)
	_, _, err := c.Forward(context.Background(), srv.URL, "/v1/map", nil)
	if !failure.IsPeerDown(err) {
		t.Fatalf("closed peer: err = %v, want ErrPeerDown", err)
	}
	var pd *PeerDownError
	if !asPeerDown(err, &pd) || pd.Peer != srv.URL {
		t.Errorf("PeerDownError.Peer = %v, want %s", pd, srv.URL)
	}
	if st := c.Stats(); st.ForwardErr != failThreshold+1 {
		t.Errorf("ForwardErr = %d, want %d", st.ForwardErr, failThreshold+1)
	}
}

// TestForwardDeadlineIsNotCharged: a forward cut by its caller's
// ctx does not charge the owner. If the deadline passed, a probe
// decides instead: a busy owner that answers statsz stays up, a hung
// one is marked down. A cancelled caller starts no probe.
func TestForwardDeadlineIsNotCharged(t *testing.T) {
	forwardShort := func(c *Cluster, peer string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, _, err := c.Forward(ctx, peer, "/v1/map", nil); !failure.IsPeerDown(err) {
			t.Fatalf("forward past its deadline: err = %v, want ErrPeerDown", err)
		}
		if st := c.Stats(); st.Peers[peerIndex(st, peer)].Failures != 0 {
			t.Fatalf("forward past its deadline charged %s", peer)
		}
	}

	t.Run("busy", func(t *testing.T) {
		release := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/map" {
				<-release // the job is still queued or running
				return
			}
			json.NewEncoder(w).Encode(Statsz{})
		}))
		defer srv.Close()
		defer close(release)
		c := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", srv.URL}})
		for i := 0; i < failThreshold; i++ {
			forwardShort(c, srv.URL)
			waitProbe(t, c, srv.URL)
		}
		if !c.Healthy(srv.URL) {
			t.Fatal("busy owner marked down")
		}
		if st := c.Stats(); st.Probes != failThreshold || st.ProbeErr != 0 {
			t.Errorf("probes=%d probeErr=%d, want %d/0", st.Probes, st.ProbeErr, failThreshold)
		}
	})

	t.Run("hung", func(t *testing.T) {
		peer := hungPeer(t)
		c := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", peer}})
		forwardShort(c, peer)
		waitProbe(t, c, peer)
		if c.Healthy(peer) {
			t.Fatal("owner silent through a forward and a probe is still up")
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		peer := hungPeer(t)
		c := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", peer}})
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		if _, _, err := c.Forward(ctx, peer, "/v1/map", nil); !failure.IsPeerDown(err) {
			t.Fatalf("cancelled forward: err = %v, want ErrPeerDown", err)
		}
		if st := c.Stats(); st.Probes != 0 || st.Peers[peerIndex(st, peer)].Failures != 0 || !c.Healthy(peer) {
			t.Errorf("cancelled forward: probes=%d stats=%+v, want no probe and no charge", st.Probes, st.Peers)
		}
	})
}

// peerIndex finds peer in a Stats snapshot.
func peerIndex(st Stats, peer string) int {
	for i, pv := range st.Peers {
		if pv.URL == peer {
			return i
		}
	}
	return -1
}

func asPeerDown(err error, out **PeerDownError) bool {
	for err != nil {
		if pd, ok := err.(*PeerDownError); ok {
			*out = pd
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestProbe checks the gossip probe: a decoded statsz marks the peer
// up, a failure charges the breaker.
func TestProbe(t *testing.T) {
	sz := Statsz{Draining: false, CacheEntries: 7, Recent: []string{"fp-a", "fp-b"}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/statsz" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(sz)
	}))
	defer srv.Close()
	c := New(Config{Self: "http://origin:1", Peers: []string{"http://origin:1", srv.URL}})
	downPeer(c, srv.URL) // down before the probe
	if c.Healthy(srv.URL) {
		t.Fatal("setup: peer should be down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := c.Probe(ctx, srv.URL)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if got.CacheEntries != 7 || len(got.Recent) != 2 {
		t.Errorf("Probe decoded %+v", got)
	}
	if !c.Healthy(srv.URL) {
		t.Error("successful probe did not recover the peer")
	}
	if _, err := c.Probe(ctx, "http://127.0.0.1:1"); !failure.IsPeerDown(err) {
		t.Errorf("dead-address probe err = %v, want ErrPeerDown", err)
	}
	st := c.Stats()
	if st.Probes != 2 || st.ProbeErr != 1 {
		t.Errorf("probe counters = %d/%d, want 2/1", st.Probes, st.ProbeErr)
	}
}

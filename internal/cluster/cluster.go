// Package cluster shards the panoramad service across a static fleet
// of peers: a consistent-hash ring (seeded virtual nodes, stdlib only)
// assigns every content-addressed computation fingerprint an owner
// peer, a forwarding client moves work to that owner with a single-hop
// guard, and a per-peer health breaker turns repeated transport
// failures into a typed failure.ErrPeerDown so callers fall back to
// local execution instead of hanging on a dead owner.
//
// The package is deliberately transport-and-membership only: it knows
// nothing about jobs, caches or journals. The service layer decides
// what to forward, when to fall back, and how to fill its cache from
// peer responses; panoramad's gossip loop adds periodic probes to the
// ones this package starts for a suspect peer. That
// keeps the dependency direction service → cluster and lets the ring
// be tested in isolation.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"panorama/internal/failure"
)

// Protocol headers of the peer fan-out.
const (
	// HeaderForwardedFrom marks a request forwarded by a non-owner
	// peer; its value is the origin peer's URL. A receiving peer never
	// re-forwards such a request: if its own ring view disagrees about
	// ownership it answers 421 (Misdirected) and the origin falls back
	// to local execution. At most one hop, ever — a fleet with
	// disagreeing ring views degrades to local work instead of looping.
	HeaderForwardedFrom = "X-Panorama-Forwarded-From"
)

// Config shapes a Cluster.
type Config struct {
	// Self is this peer's own base URL as it appears in Peers. It may
	// be set late via Configure when the listen address is not known at
	// construction time (tests, ephemeral ports).
	Self string
	// Peers is the static fleet membership (base URLs, self included).
	Peers []string
}

// failThreshold is the consecutive transport failures after which a
// peer is considered down.
const failThreshold = 3

// downCooldown is how long a down peer is left alone before a
// background probe checks whether it is back, so a fleet without
// gossip still recovers it. 10 s is a choice, not a measurement.
const downCooldown = 10 * time.Second

// probeTimeout bounds that probe: statsz does not queue behind jobs.
const probeTimeout = 2 * time.Second

// PeerView is one peer's health as seen by this node, for
// /v1/cluster/statsz and operator dashboards.
type PeerView struct {
	URL      string `json:"url"`
	Self     bool   `json:"self,omitempty"`
	Healthy  bool   `json:"healthy"`
	Failures int    `json:"consecutiveFailures,omitempty"`
}

// Stats snapshots the cluster's membership, health and traffic
// counters.
type Stats struct {
	Self       string     `json:"self"`
	Peers      []PeerView `json:"peers"`
	PeersDown  int        `json:"peersDown"`
	Forwards   int64      `json:"forwards"`
	ForwardErr int64      `json:"forwardErrors"`
	Probes     int64      `json:"probes"`
	ProbeErr   int64      `json:"probeErrors"`
}

// peerState is the health bookkeeping for one remote peer.
type peerState struct {
	consecFails int
	down        bool
	downSince   time.Time // when the peer went down, or last failed a probe
	probing     bool      // a background probe of the peer is in flight
}

// Cluster is one node's view of the fleet: the shared hash ring plus
// local-only health state and the forwarding client. Membership is
// mutable (Configure rebuilds the ring) so harnesses can wire
// peers after their listen addresses exist; lookups take a read lock
// on the current immutable ring.
type Cluster struct {
	client *http.Client

	mu    sync.Mutex
	self  string
	ring  *Ring
	peers map[string]*peerState // remote peers only

	forwards   int64
	forwardErr int64
	probes     int64
	probeErr   int64
}

// New builds a cluster from cfg. A cluster with fewer than two peers
// (or no self yet) is inert: Owner returns "" and nothing forwards,
// so single-node deployments pay nothing for the code path existing.
func New(cfg Config) *Cluster {
	c := &Cluster{client: &http.Client{}, peers: map[string]*peerState{}}
	c.Configure(cfg.Self, cfg.Peers)
	return c
}

// normalizeURL strips the trailing slash so the same peer spelled two
// ways hashes to one ring identity.
func normalizeURL(u string) string { return strings.TrimRight(strings.TrimSpace(u), "/") }

// Configure (re)binds the node's own URL and the fleet membership,
// rebuilding the ring. Health state of peers that remain is preserved.
func (c *Cluster) Configure(self string, peers []string) {
	self = normalizeURL(self)
	norm := make([]string, 0, len(peers)+1)
	for _, p := range peers {
		if n := normalizeURL(p); n != "" {
			norm = append(norm, n)
		}
	}
	if self != "" {
		// Self is always a member, whether or not the operator listed it.
		norm = append(norm, self)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.self = self
	c.ring = NewRing(norm, DefaultVirtualNodes)
	next := map[string]*peerState{}
	for _, p := range c.ring.Peers() {
		if p == c.self {
			continue
		}
		if st, ok := c.peers[p]; ok {
			next[p] = st
		} else {
			next[p] = &peerState{}
		}
	}
	c.peers = next
}

// Enabled reports whether the cluster can shard at all: a bound self
// and at least one other peer on the ring.
func (c *Cluster) Enabled() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.self != "" && c.ring.N() > 1
}

// Owner returns the ring owner of key, or "" when the cluster is
// inert (fewer than two peers, or self not yet bound).
func (c *Cluster) Owner(key string) string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.self == "" || c.ring.N() < 2 {
		return ""
	}
	return c.ring.Owner(key)
}

// IsSelf reports whether peer names this node.
func (c *Cluster) IsSelf(peer string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return peer != "" && peer == c.self
}

// Healthy reports whether work may go to peer: self always may, an
// unknown peer never, a remote peer while it is up. No job is ever
// sent to a down peer to test it: once downCooldown has passed, the
// call starts one background probe, and only that probe's success
// marks the peer up.
func (c *Cluster) Healthy(peer string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if peer == c.self {
		return true
	}
	st, ok := c.peers[peer]
	if !ok {
		return false
	}
	if st.down && time.Since(st.downSince) >= downCooldown {
		c.recheckLocked(peer, st)
	}
	return !st.down
}

// recheckLocked starts a background probe of a suspect peer unless one
// is in flight; c.mu must be held. A peer that answers is up; one that
// does not is down for another downCooldown, whatever its streak was.
func (c *Cluster) recheckLocked(peer string, st *peerState) {
	if st.probing {
		return
	}
	st.probing = true
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		_, err := c.Probe(ctx, peer)
		cancel()
		c.mu.Lock()
		defer c.mu.Unlock()
		st.probing = false
		if err != nil {
			st.down = true
			st.downSince = time.Now()
		}
	}()
}

// ReportFailure records one transport failure against peer; at
// failThreshold consecutive failures the peer turns down until a
// probe succeeds. It reports whether the peer is now considered down.
func (c *Cluster) ReportFailure(peer string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.peers[peer]
	if !ok {
		return false
	}
	st.consecFails++
	if st.consecFails >= failThreshold {
		st.down = true
		st.downSince = time.Now()
	}
	return st.down
}

// ReportSuccess clears peer's failure streak and marks it up.
func (c *Cluster) ReportSuccess(peer string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.peers[peer]; ok {
		st.consecFails = 0
		st.down = false
	}
}

// RemotePeers lists the ring members other than self.
func (c *Cluster) RemotePeers() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, p := range c.ring.Peers() {
		if p != c.self {
			out = append(out, p)
		}
	}
	return out
}

// Stats snapshots membership, health and transport counters.
func (c *Cluster) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Self:       c.self,
		Forwards:   c.forwards,
		ForwardErr: c.forwardErr,
		Probes:     c.probes,
		ProbeErr:   c.probeErr,
	}
	for _, p := range c.ring.Peers() {
		pv := PeerView{URL: p, Healthy: true, Self: p == c.self}
		if st, ok := c.peers[p]; ok {
			pv.Healthy = !st.down
			pv.Failures = st.consecFails
			if st.down {
				s.PeersDown++
			}
		}
		s.Peers = append(s.Peers, pv)
	}
	return s
}

// PeerDownError is the typed forwarding failure: it wraps
// failure.ErrPeerDown (so failure.IsPeerDown matches) and names the
// peer and the underlying cause.
type PeerDownError struct {
	Peer string
	Err  error
}

// Error names the unreachable peer and the cause.
func (e *PeerDownError) Error() string {
	return fmt.Sprintf("cluster: peer %s: %v", e.Peer, e.Err)
}

// Unwrap exposes both the cause and the failure-taxonomy sentinel.
func (e *PeerDownError) Unwrap() error { return failure.ErrPeerDown }

// peerDown wraps err as a PeerDownError and charges the peer's
// breaker, unless the caller's ctx ended first: the owner may only be
// busy, so after a deadline a probe tells busy from hung.
func (c *Cluster) peerDown(ctx context.Context, peer string, err error) error {
	if ctx.Err() == nil {
		c.ReportFailure(peer)
	}
	c.mu.Lock()
	c.forwardErr++
	if st, ok := c.peers[peer]; ok && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		c.recheckLocked(peer, st)
	}
	c.mu.Unlock()
	return &PeerDownError{Peer: peer, Err: err}
}

// Forward POSTs body to peer's path on behalf of this node, carrying
// the single-hop guard header. It returns the response status and
// body on any HTTP-level answer (the caller interprets statuses —
// including 421 ring disagreement); transport failures and 5xx
// infrastructure answers come back as a PeerDownError after charging
// the peer's health breaker. ctx alone bounds the call: the owner runs
// the mapping inside it, so the caller derives its deadline from the
// job's budget, and running out of it is not charged (see peerDown).
func (c *Cluster) Forward(ctx context.Context, peer, path string, body []byte) (int, []byte, error) {
	c.mu.Lock()
	c.forwards++
	self := c.self
	c.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, c.peerDown(ctx, peer, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwardedFrom, self)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, c.peerDown(ctx, peer, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, c.peerDown(ctx, peer, err)
	}
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		// Infrastructure-level refusals (a draining owner, a bad gateway)
		// count against health: the origin serves the job locally now.
		return resp.StatusCode, data, c.peerDown(ctx, peer, fmt.Errorf("status %d", resp.StatusCode))
	}
	c.ReportSuccess(peer)
	return resp.StatusCode, data, nil
}

// Statsz is the gossip wire format of GET /v1/cluster/statsz: the
// serving peer's identity and health view plus the recently completed
// fingerprints other peers may opportunistically pull into their own
// caches.
type Statsz struct {
	Cluster Stats `json:"cluster"`
	// Draining is true while the peer is shutting down.
	Draining bool `json:"draining"`
	// CacheEntries is the peer's in-memory result-cache size.
	CacheEntries int `json:"cacheEntries"`
	// Recent lists the peer's most recently completed computation
	// fingerprints, newest last.
	Recent []string `json:"recent,omitempty"`
}

// Probe fetches peer's /v1/cluster/statsz inside the given context and
// updates the peer's health from the outcome: a decoded answer marks
// the peer up (even a draining one — it is alive), any failure charges
// the breaker.
func (c *Cluster) Probe(ctx context.Context, peer string) (Statsz, error) {
	c.mu.Lock()
	c.probes++
	c.mu.Unlock()
	fail := func(err error) (Statsz, error) {
		c.mu.Lock()
		c.probeErr++
		c.mu.Unlock()
		c.ReportFailure(peer)
		return Statsz{}, &PeerDownError{Peer: peer, Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cluster/statsz", nil)
	if err != nil {
		return fail(err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("status %d", resp.StatusCode))
	}
	var sz Statsz
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		return fail(err)
	}
	c.ReportSuccess(peer)
	return sz, nil
}

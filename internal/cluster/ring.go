package cluster

import (
	"sort"
)

// DefaultVirtualNodes is the per-peer virtual-node count of every
// Cluster's ring, and NewRing's when a caller passes vnodes <= 0. 1024 points per peer keeps the key
// distribution within a few percent of uniform for small fleets while
// the ring stays tiny (tens of KiB for an 8-peer fleet).
const DefaultVirtualNodes = 1024

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a peer.
type ringPoint struct {
	hash uint64
	peer string
}

// Ring is an immutable consistent-hash ring: every peer contributes a
// fixed number of seeded virtual nodes, and a key belongs to the peer
// owning the first ring point at or clockwise of the key's hash.
// Immutability makes concurrent Owner lookups lock-free; membership
// changes build a new ring (see Cluster.Configure), which is cheap at
// fleet scale.
type Ring struct {
	points []ringPoint
	peers  []string // sorted, deduplicated
}

// splitmix64 is the avalanche mixer used for ring positions: fast,
// stdlib-only, and identical on every peer, which is what the ring
// needs (all peers must agree on every key's owner).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a string into the splitmix64 stream, seeded so that
// the virtual-node layout is a deliberate constant of the protocol
// (two builds disagreeing on the layout would forward in circles).
func hashString(seed uint64, s string) uint64 {
	h := splitmix64(seed ^ 0x70616e6f72616d61) // "panorama"
	for i := 0; i < len(s); i++ {
		h = splitmix64(h ^ uint64(s[i]))
	}
	return h
}

// NewRing builds a ring over the given peers with vnodes virtual nodes
// per peer (vnodes <= 0 means DefaultVirtualNodes). Duplicate peer
// names collapse to one membership; an empty peer list yields a ring
// that owns nothing (Owner returns "").
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make(map[string]bool, len(peers))
	var names []string
	for _, p := range peers {
		if p == "" || uniq[p] {
			continue
		}
		uniq[p] = true
		names = append(names, p)
	}
	sort.Strings(names)
	r := &Ring{peers: names}
	r.points = make([]ringPoint, 0, len(names)*vnodes)
	for _, p := range names {
		base := hashString(0, p)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: splitmix64(base + uint64(v)),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break deterministically by
		// name so every peer still agrees on the owner.
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// Owner returns the peer owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hashString(1, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the top arc
	}
	return r.points[i].peer
}

// Peers returns the ring's membership, sorted and deduplicated.
func (r *Ring) Peers() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// N returns the number of distinct peers on the ring.
func (r *Ring) N() int {
	if r == nil {
		return 0
	}
	return len(r.peers)
}

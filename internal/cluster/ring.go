// Package cluster is the calibsched cluster plane: a consistent-hash
// ring that maps session IDs onto calibserved backends, a health prober
// over their /readyz endpoints, an HTTP gateway (cmd/calibgate) that
// proxies the full v1 API along the ring, live session migration built
// on the export/import endpoints, and gateway-level aggregation of
// per-node /metrics. DESIGN.md §13 documents the ring, the handoff
// protocol, and its failure matrix.
//
// The gateway holds no session state: routing derives entirely from the
// ring (plus a transient override table while a rebalance is in flight),
// so any gateway with the same backend set routes identically, and the
// session state itself lives in the backends' WALs. Sessions being
// deterministic command streams is what makes migration exact — the
// importing node restores the shipped snap file through the same code
// path as crash recovery.
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring with virtual nodes. Each node is
// expanded into vnodes points on a uint64 circle; a key is owned by the
// node of the first point clockwise from the key's hash. Adding or
// removing a node therefore moves only the keys that fall into the
// arcs its points cover — about 1/N of the keyspace — which is exactly
// the set of sessions a rebalance must migrate.
//
// Reads (Owner, Nodes) take a shared lock and run concurrently with each
// other; Add/Remove take the exclusive lock. Safe for concurrent use.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	points []point // sorted by hash
	nodes  map[string]struct{}
}

type point struct {
	hash uint64
	node string
}

// DefaultVNodes is the per-node virtual-node count used when NewRing is
// given 0. 128 points per node keeps the expected per-node load within
// ~±9% (1/sqrt(128)) of fair for realistic cluster sizes.
const DefaultVNodes = 128

// NewRing builds an empty ring; vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// Add inserts a node's virtual points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a node's virtual points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the node owning key, or "" and false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	h := hash64(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	// First point at or clockwise of the key's hash, wrapping past the
	// top of the circle back to the first point.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// Nodes returns the member nodes, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Has reports node membership.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// hash64 hashes a string to a point on the ring: FNV-1a 64 for speed
// and zero dependencies, then a splitmix64 finalizer because raw FNV of
// short similar strings ("s-000001", "s-000002") clusters in the low
// bits — the finalizer's avalanche spreads them across the full circle.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

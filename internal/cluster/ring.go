// Package cluster is the horizontal scale-out layer over mbaserved: a
// consistent-hash ring that shards work across nodes by canonical
// expression digest, per-node circuit breakers (portfolio.Breaker,
// the engines' own) with eject/readmit semantics, a batch
// split/failover/reassemble engine, and an HTTP router (cmd/mbarouter)
// built from those pieces.
//
// The sharding argument is locality, not just load: a single mbaserved
// node is fast because its state is warm — the semantic LRU verdict
// cache, the incremental smt.Contexts with their learned clauses, the
// interner. All of that is keyed (directly or effectively) by the
// canonical expr.Digest, so routing each digest to a stable owner node
// keeps every node's warm state hot for exactly its slice of the
// corpus. A round-robin balancer would spread each digest across all
// nodes and divide every cache's hit rate by the node count.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring with virtual nodes. Keys
// (canonical digest route keys) map to nodes (backend base URLs);
// Sequence additionally yields the failover order — the distinct nodes
// in ring order after the owner — which replicas use so an item is
// never retried on the node that just failed it.
//
// Virtual nodes smooth the load: with V points per node the expected
// imbalance falls as 1/sqrt(V); 64 keeps the worst node within a few
// percent of fair share for small clusters while keeping lookup tables
// tiny.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// DefaultVirtualNodes is every ring's points-per-node count.
const DefaultVirtualNodes = 64

// NewRing builds a ring over the given nodes (order-insensitive; the
// hash space position depends only on the node name). It returns an
// error on an empty or duplicate node list — a duplicate would
// silently double that node's share.
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ring needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*DefaultVirtualNodes),
	}
	for i, n := range r.nodes {
		if seen[n] {
			return nil, fmt.Errorf("duplicate node %q", n)
		}
		seen[n] = true
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(n + "#" + strconv.Itoa(v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// hashKey positions a key (or virtual node) on the ring: FNV-1a
// followed by a splitmix64 finalizer. Bare FNV-1a clusters badly on
// the short, near-identical virtual-node labels ("http://n1#0",
// "http://n1#1", ...) — similar inputs land on nearby ring positions
// and one node can end up owning most of the circle. The finalizer's
// avalanche spreads those points uniformly while staying fast and
// stable across processes.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the ring's node list in construction order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Lookup returns the key's owner node.
func (r *Ring) Lookup(key string) string {
	return r.nodes[r.points[r.search(key)].node]
}

// Sequence returns every node exactly once, starting with the key's
// owner and continuing in ring order — the preference order for
// failover. For any fixed key the sequence is stable across processes
// and across calls.
func (r *Ring) Sequence(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i, n := r.search(key), 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
			if len(out) == len(r.nodes) {
				break
			}
		}
	}
	return out
}

// search returns the index of the first ring point at or clockwise of
// the key's position.
func (r *Ring) search(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

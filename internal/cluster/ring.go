// Package cluster is the horizontal scale-out tier over priveletd
// nodes: a coordinator-less routing layer that consistent-hashes
// release IDs onto a static ring of nodes, replicates read-only
// releases R ways, and fans reads out to any healthy replica.
//
// The paper makes this tier cheap: a Privelet release is a
// publish-once artifact (§III — the ε budget is spent when the noisy
// matrix M* is computed; §VI's evaluator then answers arbitrarily many
// range-count queries with no further accounting), so a release is
// immutable the moment it exists. Replication is therefore file
// shipping in the internal/codec wire format (spill files, /export,
// Save/Load): a primary's /export sends its spill file, the router
// pipes it into each follower's push without holding it, and the
// follower's store.Ingest keeps it as its own spill file, after the
// checks a reload makes (only a copy whose table fails its checksum is
// encoded again). Replicas can never diverge:
// every copy answers every query bit-identically (float64 ==) to the
// original, because decode is bit-exact and the prefix-sum build is
// deterministic. No consensus, no invalidation, no read-repair.
//
// Three pieces:
//
//   - Ring: the static consistent-hash ring. Release IDs map to an
//     ordered replica set of nodes; tenant-scoped IDs
//     ("<tenant>/<epoch>") hash by their tenant prefix, so all of a
//     tenant's epochs — and the tenant's budget ledger, which lives
//     only on its primary — colocate on one replica set.
//   - Health: the per-node prober. A background loop hits each node's
//     /readyz; a run of three consecutive failures ejects the node,
//     one successful probe re-admits it, and the proxy reports
//     transport failures for immediate (passive) ejection.
//   - Router: the HTTP front end that mirrors the priveletd API.
//     Reads (/releases/{id}, /count, /query, /export) fan out across
//     the ID's healthy replicas with retry-on-next-replica; writes
//     (/publish, tenant publishes, DELETE) route to the ID's primary
//     and synchronously replicate before the 201 is returned; /stats
//     aggregates every node's stats so one request shows the fleet.
//
// The tier is deliberately coordinator-less: the ring is fixed at
// startup (every router instance configured with the same peer list
// computes the same placement), health is a local observation, and
// because releases are immutable the worst failure mode is
// unavailability — a replica that missed a publish answers 404 and the
// router falls through to the next replica — never a wrong answer.
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Node identifies one priveletd process in the ring: a stable name
// (placement hashes the name, so renaming a node moves its data) and
// the base URL the router reaches it at.
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// vnodes is the number of virtual points each node contributes to the
// ring. 128 points per node keeps the load split across a handful of
// nodes within a few percent of even while the ring stays small enough
// to rebuild instantly at startup.
const vnodes = 128

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is a static consistent-hash ring over a fixed node set. It is
// immutable after NewVersionedRing and safe for concurrent use.
// Placement depends only on the node names, not their order in the
// configuration or their URLs, so every router over the same peer set
// agrees.
type Ring struct {
	nodes    []Node
	points   []point
	replicas int
	version  uint64
}

// NewVersionedRing builds a ring over nodes with R-way replication,
// stamped with a membership version. The replication factor is clamped
// to the node count; nodes must have non-empty, unique names and
// non-empty URLs. The version is the operator's monotonic counter over
// peer-list changes (0 for an unversioned deployment): a router's
// replication pushes carry its version, and a node whose own ring is
// newer refuses stale senders — so membership can roll through a fleet
// one process at a time, with misrouted writes from not-yet-restarted
// routers turned into typed errors instead of silently wrong placement.
func NewVersionedRing(nodes []Node, replicas int, version uint64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(nodes) {
		replicas = len(nodes)
	}
	sorted := make([]Node, len(nodes))
	copy(sorted, nodes)
	// Sort by name so placement is independent of configuration order.
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	seen := make(map[string]bool, len(sorted))
	for _, n := range sorted {
		if n.Name == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node needs a name and a URL (got %+v)", n)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	r := &Ring{nodes: sorted, replicas: replicas, version: version, points: make([]point, 0, len(sorted)*vnodes)}
	for i, n := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n.Name, v)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// Nodes returns the ring's node set in name order.
func (r *Ring) Nodes() []Node {
	out := make([]Node, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Replication returns the effective replication factor (after clamping
// to the node count).
func (r *Ring) Replication() int { return r.replicas }

// Version returns the ring's membership version (0 for an unversioned
// deployment).
func (r *Ring) Version() uint64 { return r.version }

// Contains reports whether name is one of the ring's nodes.
func (r *Ring) Contains(name string) bool {
	for _, n := range r.nodes {
		if n.Name == name {
			return true
		}
	}
	return false
}

// RouteKey maps a release ID to its placement key: tenant-scoped IDs
// ("<tenant>/<epoch>") route by the tenant prefix, so every epoch of a
// tenant — and the tenant's budget, which only the primary accounts —
// lands on the same replica set; plain IDs route by themselves.
func RouteKey(id string) string {
	if tenant, _, ok := strings.Cut(id, "/"); ok {
		return tenant
	}
	return id
}

// ReplicasFor returns key's replica set: the first R distinct nodes
// walking the ring clockwise from the key's hash. The first node is
// the primary; the order is stable for a given ring.
func (r *Ring) ReplicasFor(key string) []Node {
	h := hash64(key)
	// First point at or after h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]Node, 0, r.replicas)
	taken := make(map[int]bool, r.replicas)
	for n := 0; n < len(r.points) && len(out) < r.replicas; n++ {
		p := r.points[(i+n)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

// PrimaryFor returns the node writes for key route to: the first node
// of the key's replica set.
func (r *Ring) PrimaryFor(key string) Node { return r.ReplicasFor(key)[0] }

// hash64 is FNV-1a with a 64-bit avalanche finalizer, inlined so ring
// lookups never allocate a hash.Hash64. The finalizer matters: vnode
// keys are short and nearly identical ("n1#0", "n1#1", ...), and raw
// FNV leaves their hashes correlated enough to skew arc lengths badly —
// one node can end up owning over half the ring.
func hash64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

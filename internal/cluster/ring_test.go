package cluster

import (
	"fmt"
	"testing"
)

func testNodes(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = Node{Name: fmt.Sprintf("n%d", i), URL: fmt.Sprintf("http://node%d.invalid", i)}
	}
	return out
}

// TestClusterRingDeterministicPlacement: every router configured with
// the same peer set must compute the same placement, regardless of the
// order the peers were listed in — the coordinator-less design depends
// on it.
func TestClusterRingDeterministicPlacement(t *testing.T) {
	nodes := testNodes(5)
	reversed := make([]Node, len(nodes))
	for i, n := range nodes {
		reversed[len(nodes)-1-i] = n
	}
	a, err := NewVersionedRing(nodes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVersionedRing(reversed, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("r%d", i)
		ra, rb := a.ReplicasFor(key), b.ReplicasFor(key)
		if len(ra) != 3 || len(rb) != 3 {
			t.Fatalf("ReplicasFor(%q): %d/%d replicas, want 3", key, len(ra), len(rb))
		}
		for j := range ra {
			if ra[j].Name != rb[j].Name {
				t.Fatalf("placement differs for %q: %v vs %v", key, ra, rb)
			}
		}
	}
}

// TestClusterRingReplicasDistinct: a replica set never repeats a node,
// and clamps to the ring size.
func TestClusterRingReplicasDistinct(t *testing.T) {
	r, err := NewVersionedRing(testNodes(3), 5, 0) // asks for more copies than nodes
	if err != nil {
		t.Fatal(err)
	}
	if r.Replication() != 3 {
		t.Fatalf("Replication() = %d, want clamp to 3", r.Replication())
	}
	for i := 0; i < 200; i++ {
		reps := r.ReplicasFor(fmt.Sprintf("key%d", i))
		if len(reps) != 3 {
			t.Fatalf("got %d replicas, want 3", len(reps))
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n.Name] {
				t.Fatalf("replica set repeats %q: %v", n.Name, reps)
			}
			seen[n.Name] = true
		}
	}
}

// TestClusterRingBalance: with virtual nodes, primaries spread across
// the ring — no node owns a wildly disproportionate share.
func TestClusterRingBalance(t *testing.T) {
	r, err := NewVersionedRing(testNodes(4), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.PrimaryFor(fmt.Sprintf("x%d", i)).Name]++
	}
	for name, c := range counts {
		// Fair share is 1000; accept a generous 2x band — the point is
		// catching a broken hash (one node owning everything), not
		// enforcing perfect spread.
		if c < keys/8 || c > keys/2 {
			t.Errorf("node %s owns %d/%d keys — ring badly unbalanced", name, c, keys)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d nodes own keys, want 4", len(counts))
	}
}

// TestClusterRingTenantColocation: every epoch of a tenant routes by
// the tenant prefix, so the whole history (and the budget ledger on
// the primary) shares one replica set.
func TestClusterRingTenantColocation(t *testing.T) {
	r, err := NewVersionedRing(testNodes(5), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := r.ReplicasFor(RouteKey("alice/1"))
	for epoch := 2; epoch <= 20; epoch++ {
		id := fmt.Sprintf("alice/%d", epoch)
		if RouteKey(id) != "alice" {
			t.Fatalf("RouteKey(%q) = %q, want alice", id, RouteKey(id))
		}
		reps := r.ReplicasFor(RouteKey(id))
		for j := range reps {
			if reps[j].Name != base[j].Name {
				t.Fatalf("epoch %d placed on %v, epoch 1 on %v", epoch, reps, base)
			}
		}
	}
	if RouteKey("r17") != "r17" {
		t.Fatalf("plain IDs must route by themselves, got %q", RouteKey("r17"))
	}
}

// TestClusterRingRejectsBadConfig: empty rings and duplicate or
// anonymous nodes fail construction, not serving.
func TestClusterRingRejectsBadConfig(t *testing.T) {
	if _, err := NewVersionedRing(nil, 2, 0); err == nil {
		t.Error("empty ring must be rejected")
	}
	if _, err := NewVersionedRing([]Node{{Name: "a", URL: "u"}, {Name: "a", URL: "v"}}, 1, 0); err == nil {
		t.Error("duplicate node name must be rejected")
	}
	if _, err := NewVersionedRing([]Node{{Name: "", URL: "u"}}, 1, 0); err == nil {
		t.Error("anonymous node must be rejected")
	}
}

// TestClusterParsePeers covers the -peers flag grammar.
func TestClusterParsePeers(t *testing.T) {
	nodes, err := ParsePeers("n1=http://localhost:8081, n2=http://localhost:8082,http://host3:9000/")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{Name: "n1", URL: "http://localhost:8081"},
		{Name: "n2", URL: "http://localhost:8082"},
		{Name: "host3:9000", URL: "http://host3:9000"},
	}
	if len(nodes) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(nodes), len(want))
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("peer %d = %+v, want %+v", i, nodes[i], want[i])
		}
	}
	for _, bad := range []string{"", "   ", "n1=:", "just-a-name"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) should fail", bad)
		}
	}
}

func BenchmarkClusterRingReplicas(b *testing.B) {
	r, err := NewVersionedRing(testNodes(8), 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant%d/17", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.ReplicasFor(RouteKey(keys[i%len(keys)]))
	}
}

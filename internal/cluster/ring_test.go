package cluster

import (
	"fmt"
	"testing"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty node list: want error")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate node: want error")
	}
	if _, err := NewRing([]string{"a"}); err != nil {
		t.Fatalf("single node: %v", err)
	}
}

func TestRingLookupStable(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	r1, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Same nodes in a different construction order must map every key
	// to the same owner: the ring position depends only on node names.
	r2, err := NewRing([]string{"http://n3", "http://n1", "http://n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("solve|w8|%064x|%064x", i, i*7)
		if got, want := r2.Lookup(key), r1.Lookup(key); got != want {
			t.Fatalf("key %q: order-dependent owner %q vs %q", key, got, want)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("classify|%064x", i))]++
	}
	// With 64 vnodes the worst node should stay within a factor of ~2
	// of fair share; a broken ring typically lands everything on one.
	fair := keys / len(nodes)
	for _, n := range nodes {
		if c := counts[n]; c < fair/2 || c > fair*2 {
			t.Fatalf("node %s got %d of %d keys (fair %d): %v", n, c, keys, fair, counts)
		}
	}
}

func TestRingSequence(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3"}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		seq := r.Sequence(key)
		if len(seq) != len(nodes) {
			t.Fatalf("sequence for %q has %d nodes, want %d: %v", key, len(seq), len(nodes), seq)
		}
		if seq[0] != r.Lookup(key) {
			t.Fatalf("sequence for %q starts at %q, owner is %q", key, seq[0], r.Lookup(key))
		}
		seen := make(map[string]bool)
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("sequence for %q repeats node %q: %v", key, n, seq)
			}
			seen[n] = true
		}
	}
}

// TestRingMinimalReshard checks the consistent-hashing property: adding
// a node moves only the keys that node takes over, never keys between
// two surviving nodes.
func TestRingMinimalReshard(t *testing.T) {
	small, err := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing([]string{"http://n1", "http://n2", "http://n3", "http://n4"})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("%064x", i*13)
		before, after := small.Lookup(key), big.Lookup(key)
		if before == after {
			continue
		}
		if after != "http://n4" {
			t.Fatalf("key %q moved %q -> %q, not to the new node", key, before, after)
		}
		moved++
	}
	// Expect ~1/4 of keys to move to the new node; far more would mean
	// the ring reshuffles on membership change.
	if moved == 0 || moved > keys/2 {
		t.Fatalf("adding a node moved %d of %d keys", moved, keys)
	}
}

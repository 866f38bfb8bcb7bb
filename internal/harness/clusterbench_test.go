package harness

import "testing"

// TestClusterBenchSmoke runs a miniature cluster benchmark end to end:
// real nodes, a real router, cold and warm phases at two node counts,
// then the store-backed stop-and-reboot cycle at the largest count.
// Zero verdict mismatches and zero degraded items are hard assertions
// — this is the distributed differential test ci.sh leans on.
func TestClusterBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real clusters")
	}
	report, err := RunClusterBench(ClusterBenchConfig{
		NodeCounts:  []int{1, 2},
		Samples:     3,
		WarmRepeats: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Mismatches != 0 {
		t.Fatalf("%d verdict mismatches across the cluster", report.Mismatches)
	}
	if len(report.Runs) != 6 {
		t.Fatalf("%d runs, want cold+warm at 2 node counts plus store-cold+store-restart", len(report.Runs))
	}
	for _, run := range report.Runs {
		if run.Degraded != 0 {
			t.Fatalf("%d nodes %s: %d degraded items with no faults injected", run.Nodes, run.Phase, run.Degraded)
		}
		if run.Queries == 0 || run.Throughput <= 0 {
			t.Fatalf("%d nodes %s: empty run %+v", run.Nodes, run.Phase, run)
		}
		switch run.Phase {
		case "warm":
			if run.CacheHits == 0 {
				t.Fatalf("%d nodes warm: identical batch missed every shard cache", run.Nodes)
			}
		case "store-cold":
			if run.StoreHits != 0 {
				t.Fatalf("store-cold: %d store hits from an empty store", run.StoreHits)
			}
		case "store-restart":
			// Same addresses, same ring: every query must return to the
			// node whose recovered log holds its verdict.
			if run.StoreHits != run.Queries {
				t.Fatalf("store-restart: %d of %d queries served from the store", run.StoreHits, run.Queries)
			}
		}
		// No forward fails here, so every item is served by its key's
		// ring owner. Whether a small batch splits over two nodes
		// depends on the random ports; TestRingSplitsTwoLoopbackNodes
		// checks the split over fixed addresses.
		if run.ShardsUsed != run.RingOwners {
			t.Fatalf("%d nodes %s: items served by %d nodes, their keys have %d ring owners", run.Nodes, run.Phase, run.ShardsUsed, run.RingOwners)
		}
	}
	if report.RestartSpeedup <= 0 {
		t.Fatalf("restart speedup %v, want > 0", report.RestartSpeedup)
	}
}

package cluster

import (
	"testing"
	"time"

	"mbasolver/internal/leakcheck"
	"mbasolver/internal/portfolio"
)

// Node health on the router: each node's portfolio.Breaker decides
// whether the replica walk routes to it and whether the prober probes
// it. These tests drive the breakers the router built and read the
// result back through the walk and the router's snapshot.

// healthCooldown is long enough that a check made right after an eject
// lands well inside the cooldown on a loaded host.
const healthCooldown = 250 * time.Millisecond

// newHealthRouter builds a prober-less router over fresh fake nodes,
// ejecting at testThreshold with a healthCooldown first cooldown.
func newHealthRouter(t *testing.T, names ...string) (*Router, []string) {
	t.Helper()
	urls := make([]string, len(names))
	for i, name := range names {
		urls[i] = newFakeNode(t, name).srv.URL
	}
	rt, err := NewRouter(RouterConfig{
		Nodes:         urls,
		ProbeInterval: -1,
		Health:        portfolio.BreakerOptions{Threshold: testThreshold, Cooldown: healthCooldown},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, urls
}

// walkFromOwner returns the first node the replica walk picks for a key
// that node owns.
func walkFromOwner(rt *Router, node string) string {
	key := "k"
	for rt.Ring().Lookup(key) != node {
		key += "k"
	}
	walk := newReplicaWalk(rt.Ring(), key)
	return walk.next(rt.breakers)
}

func ejectNode(rt *Router, node string) {
	for i := 0; i < testThreshold; i++ {
		rt.breakers[node].ReportFailure()
	}
}

func TestTrackerSuccessResetsStreak(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	rt, urls := newHealthRouter(t, "n1", "n2")
	a := urls[0]
	for round := 0; round < 2; round++ {
		for i := 0; i < testThreshold-1; i++ {
			rt.breakers[a].ReportFailure()
		}
		rt.breakers[a].ReportSuccess()
	}
	for i := 0; i < testThreshold-1; i++ {
		rt.breakers[a].ReportFailure()
	}
	if snap := rt.Snapshot(); snap.Nodes[a] != "healthy" || snap.Ejects != 0 {
		t.Fatalf("streak did not reset on success: nodes %v ejects %d", snap.Nodes, snap.Ejects)
	}
	if got := walkFromOwner(rt, a); got != a {
		t.Fatalf("walk from %s's key went to %s, want the healthy owner", a, got)
	}
}

func TestTrackerHalfOpenProbe(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	rt, urls := newHealthRouter(t, "n1", "n2")
	a, b := urls[0], urls[1]
	ejectNode(rt, a)
	if rt.breakers[a].Allow() {
		t.Fatal("ejected node probed before cooldown")
	}
	if got := walkFromOwner(rt, a); got != b {
		t.Fatalf("walk from ejected %s's key went to %s, want %s", a, got, b)
	}
	time.Sleep(healthCooldown + 50*time.Millisecond)
	if !rt.breakers[a].Allow() {
		t.Fatal("ejected node not probed after cooldown")
	}
	// Exactly one probe is admitted while the outcome is pending.
	if rt.breakers[a].Allow() {
		t.Fatal("second probe admitted while first is pending")
	}
	if got := rt.Snapshot().Nodes[a]; got != "probing" {
		t.Fatalf("state %q during the probe, want probing", got)
	}
	if got := walkFromOwner(rt, a); got != a {
		t.Fatalf("walk from probing %s's key went to %s: a probing node should accept traffic", a, got)
	}
	rt.breakers[a].ReportSuccess()
	if got := rt.Snapshot().Nodes[a]; got != "healthy" {
		t.Fatalf("successful probe did not readmit: state %q", got)
	}
	if !rt.breakers[a].Allow() {
		t.Fatal("readmitted node not probed")
	}
}

func TestTrackerFailedProbeDoublesCooldown(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	rt, urls := newHealthRouter(t, "n1", "n2")
	a := urls[0]
	ejectNode(rt, a)
	time.Sleep(healthCooldown + 50*time.Millisecond)
	if !rt.breakers[a].Allow() {
		t.Fatal("no probe after first cooldown")
	}
	rt.breakers[a].ReportFailure() // failed readmission probe: the cooldown doubles
	if got := rt.Snapshot().Nodes[a]; got != "ejected" {
		t.Fatalf("failed probe did not re-eject: state %q", got)
	}
	if got := rt.Snapshot().Ejects; got != 2 {
		t.Fatalf("ejects = %d, want 2", got)
	}
	time.Sleep(healthCooldown + 50*time.Millisecond)
	if rt.breakers[a].Allow() {
		t.Fatal("probe admitted before the doubled cooldown elapsed")
	}
	time.Sleep(healthCooldown)
	if !rt.breakers[a].Allow() {
		t.Fatal("no probe after the doubled cooldown")
	}
	rt.breakers[a].ReportSuccess()
	// Readmission resets the cooldown to its base value.
	ejectNode(rt, a)
	time.Sleep(healthCooldown + 50*time.Millisecond)
	if !rt.breakers[a].Allow() {
		t.Fatal("cooldown did not reset after readmission")
	}
}

func TestTrackerHealthyAlwaysProbed(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	rt, urls := newHealthRouter(t, "n1", "n2")
	for _, node := range urls {
		for i := 0; i < 5; i++ {
			if !rt.breakers[node].Allow() {
				t.Fatalf("healthy node %s must always be probed", node)
			}
		}
		if got := rt.Snapshot().Nodes[node]; got != "healthy" {
			t.Fatalf("probing a healthy node changed its state to %q", got)
		}
	}
}

package portfolio

import (
	"testing"
	"time"

	"mbasolver/internal/fault"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// TestBreakerStateMachine drives the closed → open → half-open cycle
// with an injected clock. The cluster router runs one breaker per node
// on the same rules: Open is its routability check and Allow its
// prober's gate.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker("x", BreakerOptions{Threshold: 3, Cooldown: time.Second})
	b.now = func() time.Time { return now }

	// A closed breaker always allows: a healthy node is probed every
	// tick.
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused")
		}
	}

	// A success resets the failure streak.
	b.ReportFailure()
	b.ReportFailure()
	b.ReportSuccess()
	b.ReportFailure()
	b.ReportFailure()
	if b.Open() || b.State() != "closed" {
		t.Fatalf("streak not reset by a success: state=%s", b.State())
	}
	b.ReportSuccess()

	for i := 0; i < 2; i++ {
		b.ReportFailure()
	}
	if !b.Allow() || b.Open() || b.State() != "closed" {
		t.Fatalf("below threshold: state=%s, want closed and allowing", b.State())
	}
	b.ReportFailure()
	if b.Allow() || !b.Open() || b.State() != "open" || b.Trips() != 1 {
		t.Fatalf("at threshold: state=%s trips=%d, want open after 3 failures", b.State(), b.Trips())
	}

	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: probe refused")
	}
	if b.State() != "half-open" {
		t.Fatalf("state=%s, want half-open during probe", b.State())
	}
	if b.Allow() {
		t.Fatal("second probe admitted while first in flight")
	}
	if b.Open() {
		t.Fatal("half-open breaker reads open: a probing node must take traffic")
	}

	// Failed probe: re-open with doubled cooldown.
	b.ReportFailure()
	if b.State() != "open" || b.Trips() != 2 {
		t.Fatalf("failed probe: state=%s trips=%d, want re-opened", b.State(), b.Trips())
	}
	now = now.Add(time.Second)
	if b.Allow() {
		t.Fatal("re-opened breaker admitted before doubled cooldown")
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("doubled cooldown elapsed: probe refused")
	}

	// Successful probe closes and resets the backoff: the next trip
	// waits the base cooldown again, not the doubled one.
	b.ReportSuccess()
	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("successful probe: state=%s, want closed", b.State())
	}
	for i := 0; i < 3; i++ {
		b.ReportFailure()
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown not reset to its base after a successful probe")
	}

	// Report classifies by reason: only structural degradations count
	// as failures. A definitive verdict carries ReasonNone and plain
	// budget exhaustion is the expected behaviour of a healthy engine.
	for _, c := range []struct {
		reason smt.Reason
		fails  bool
	}{
		{smt.ReasonNone, false},
		{smt.ReasonBudget, false},
		{smt.ReasonPanic, true},
		{smt.ReasonResource, true},
	} {
		rb := NewBreaker("r", BreakerOptions{Threshold: 1, Cooldown: time.Hour})
		rb.Report(c.reason)
		if got := rb.State() == "open"; got != c.fails {
			t.Fatalf("Report(%v): state=%s, want open=%v", c.reason, rb.State(), c.fails)
		}
	}
}

// TestSetSkipsOpenBreaker: an engine whose breaker is open sits the
// race out (Skipped), and the remaining engines still produce the
// correct verdict.
func TestSetSkipsOpenBreaker(t *testing.T) {
	cs := New(smt.All(), Options{Incremental: true, Breakers: &BreakerOptions{Threshold: 1, Cooldown: time.Hour}})
	cs.Breakers()[0].ReportFailure() // open z3sim's breaker

	a, b := parser.MustParse("x^y"), parser.MustParse("(x|y)-(x&y)")
	res := cs.CheckEquiv(a, b, 8, decideBudget)
	if res.Status != smt.Equivalent {
		t.Fatalf("verdict %v, want equivalent", res.Status)
	}
	if !res.Engines[0].Skipped || res.Engines[0].Verdict != "skipped" {
		t.Fatalf("engine 0 = %+v, want skipped", res.Engines[0])
	}
	for _, e := range res.Engines[1:] {
		if e.Skipped {
			t.Fatalf("engine %s skipped with a closed breaker", e.Solver)
		}
	}
}

// TestBreakerOpensOnInjectedPanicsAndRecovers: repeated injected
// panics open every breaker; the set still answers (force-admitting
// everyone rather than refusing), and once the fault clears a
// successful query closes the breakers again.
func TestBreakerOpensOnInjectedPanicsAndRecovers(t *testing.T) {
	defer fault.Disable()
	cs := New(smt.All(), Options{Incremental: true, Breakers: &BreakerOptions{Threshold: 2, Cooldown: time.Hour}})

	a, b := parser.MustParse("x+y"), parser.MustParse("(x|y)+(x&y)")
	budget := decideBudget

	if err := fault.EnableSpec("smt.rewrite:every=1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res := cs.CheckEquiv(a, b, 8, budget)
		if res.Status != smt.Unknown || res.Reason != smt.ReasonPanic {
			t.Fatalf("query %d under injection: status=%v reason=%v, want unknown/panic", i, res.Status, res.Reason)
		}
	}
	for _, br := range cs.Breakers() {
		if br.State() != "open" {
			t.Fatalf("breaker %s state=%s after repeated panics, want open", br.Name(), br.State())
		}
	}

	// All breakers open: the set must still answer, not refuse.
	fault.Disable()
	res := cs.CheckEquiv(a, b, 8, budget)
	if res.Status != smt.Equivalent {
		t.Fatalf("all-open verdict %v, want equivalent (force-admitted race)", res.Status)
	}
	// The winning engine demonstrated health, so its breaker must have
	// closed. (Cancelled losers are inconclusive and may stay open until
	// they win a later race — that is fine, force-admission keeps them
	// racing.)
	for _, br := range cs.Breakers() {
		if br.Name() == res.Winner && br.State() != "closed" {
			t.Fatalf("winner %s breaker state=%s after success, want closed", br.Name(), br.State())
		}
	}
}

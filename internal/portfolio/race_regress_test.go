package portfolio

import (
	"testing"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/fault"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// These tests pin the first-verdict-wins race against fast failures.
// The invariants:
//
//  1. Only a definitive verdict stops the race. An engine that
//     degrades quickly (panic, resource cap, a tripped breaker's probe
//     failing fast) must not cancel personalities that could still
//     answer.
//  2. A failed engine is never mislabeled "cancelled". Before the fix,
//     Cancelled was computed as Unknown-while-stop-raised — and since
//     the winner raises every stop flag, any engine that panicked in a
//     race someone else won was reported as a healthy cancellation.
//  3. Breakers see those failures. The same mislabel fed the breaker
//     reporting, so a personality could panic on every query and never
//     trip its breaker as long as some other engine kept winning.

// TestRaceFastPanicDoesNotCancelRace: with exactly one engine
// panicking instantly (fault site smt.rewrite, first hit), the
// portfolio still produces the definitive verdict from a healthy
// engine, and the panicked engine's entry reports the failure rather
// than a cancellation.
func TestRaceFastPanicDoesNotCancelRace(t *testing.T) {
	defer fault.Disable()
	if err := fault.EnableSpec("smt.rewrite:hit=1"); err != nil {
		t.Fatal(err)
	}

	a, b := parser.MustParse("x+y"), parser.MustParse("(x|y)+(x&y)")
	res := New(smt.All(), Options{}).CheckEquiv(a, b, 8, decideBudget)
	if res.Status != smt.Equivalent {
		t.Fatalf("verdict %v, want equivalent despite one engine panicking", res.Status)
	}
	if res.Winner == "" {
		t.Fatal("no winner recorded")
	}

	panicked := 0
	for _, e := range res.Engines {
		if e.Reason != smt.ReasonPanic {
			continue
		}
		panicked++
		if e.Won {
			t.Fatalf("panicked engine %s won the race", e.Solver)
		}
		if e.Cancelled {
			t.Fatalf("panicked engine %s labeled Cancelled; a failure is not a cancellation", e.Solver)
		}
		if e.Verdict != smt.Timeout.String() {
			t.Fatalf("panicked engine %s verdict %q, want unknown", e.Solver, e.Verdict)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d engines report ReasonPanic, want exactly 1 (hit=1 spec)", panicked)
	}
}

// TestRaceFastPanicSatPath is the same pin for the satisfiability
// race.
func TestRaceFastPanicSatPath(t *testing.T) {
	defer fault.Disable()
	if err := fault.EnableSpec("smt.rewrite:hit=1"); err != nil {
		t.Fatal(err)
	}

	x := bv.FromExpr(parser.MustParse("x"), 8)
	assertions := []*bv.Term{bv.Predicate(bv.Eq, x, bv.NewConst(1, 8))}
	res := New(smt.All(), Options{}).SolveAssertions(assertions, decideBudget)
	if res.Status != smt.Satisfiable {
		t.Fatalf("verdict %v, want satisfiable despite one engine panicking", res.Status)
	}
	panicked := 0
	for _, e := range res.Engines {
		if e.Reason != smt.ReasonPanic {
			continue
		}
		panicked++
		if e.Cancelled {
			t.Fatalf("panicked engine %s labeled Cancelled on the sat path", e.Solver)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d engines report ReasonPanic, want exactly 1", panicked)
	}
}

// TestBreakerSeesFastFailureWhenRaceIsWon: the regression that
// motivated the sweep. One engine panics fast, another wins; the
// panicked engine's breaker must record the failure (threshold 1 →
// open), and the winner's must stay closed. Pre-fix, the panicked run
// was classified cancelled and never reported, so the breaker stayed
// closed no matter how often the engine crashed.
func TestBreakerSeesFastFailureWhenRaceIsWon(t *testing.T) {
	defer fault.Disable()
	cs := New(smt.All(), Options{Incremental: true, Breakers: &BreakerOptions{Threshold: 1, Cooldown: time.Hour}})

	if err := fault.EnableSpec("smt.rewrite:hit=1"); err != nil {
		t.Fatal(err)
	}
	a, b := parser.MustParse("x+y"), parser.MustParse("(x|y)+(x&y)")
	res := cs.CheckEquiv(a, b, 8, decideBudget)
	if res.Status != smt.Equivalent {
		t.Fatalf("verdict %v, want equivalent despite one engine panicking", res.Status)
	}

	panickedIdx := -1
	for i, e := range res.Engines {
		if e.Reason == smt.ReasonPanic {
			if panickedIdx != -1 {
				t.Fatalf("multiple panicked engines (%d and %d), want exactly 1", panickedIdx, i)
			}
			panickedIdx = i
		}
	}
	if panickedIdx == -1 {
		t.Fatal("no engine reports ReasonPanic")
	}
	if res.Engines[panickedIdx].Cancelled {
		t.Fatalf("panicked engine %s labeled Cancelled", res.Engines[panickedIdx].Solver)
	}
	for i, br := range cs.breakers {
		if i == panickedIdx {
			if br.State() != "open" {
				t.Fatalf("panicked engine %s breaker state=%s, want open: the race being won must not hide failures from the breaker",
					br.Name(), br.State())
			}
			continue
		}
		if br.State() != "closed" {
			t.Fatalf("healthy engine %s breaker state=%s, want closed", br.Name(), br.State())
		}
	}
}

// multiplierBudget is a conflict-only budget under which every
// personality decides the width-8 multiplier identity x*y =
// (x&~y)*(~x&y) + (x&y)*(x|y) alone, fresh or warm. It takes z3sim
// ~99k conflicts warm, and z3sim's budget is the only one not scaled
// up by a simulated speed.
var multiplierBudget = smt.Budget{Conflicts: 200_000}

// TestRaceCancelledLoserStillLabeled: the flip side of the fix — a
// healthy engine that was genuinely stopped because the race ended
// keeps the Cancelled label (budget-kind Unknown under a raised flag),
// and its breaker is not penalized.
func TestRaceCancelledLoserStillLabeled(t *testing.T) {
	cs := New(smt.All(), Options{Incremental: true, Breakers: &BreakerOptions{Threshold: 1, Cooldown: time.Hour}})

	// A pair hard enough that slower engines are usually still solving
	// when the winner finishes; run a few queries and accept whatever
	// cancellations occur — the invariant is about labels, not timing.
	a := parser.MustParse("x*y")
	b := parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)")
	for q := 0; q < 3; q++ {
		res := cs.CheckEquiv(a, b, 8, multiplierBudget)
		if res.Status != smt.Equivalent {
			t.Fatalf("query %d verdict %v, want equivalent", q, res.Status)
		}
		for _, e := range res.Engines {
			if e.Cancelled && e.Reason != smt.ReasonBudget {
				t.Fatalf("engine %s Cancelled with reason %v; only budget-kind stops are cancellations",
					e.Solver, e.Reason)
			}
		}
	}
	for _, br := range cs.breakers {
		if br.State() != "closed" {
			t.Fatalf("engine %s breaker state=%s after healthy queries, want closed", br.Name(), br.State())
		}
	}
}

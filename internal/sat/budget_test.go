package sat

import (
	"sync/atomic"
	"testing"
	"time"
)

// hardSolver returns a solver loaded with an instance known to need far
// more than a second of search (PHP(10,9) resolution proofs are
// exponential).
func hardSolver() *Solver {
	s := New(DefaultOptions())
	pigeonhole(s, 10, 9)
	return s
}

// TestDeadlineObservedPromptly is the regression test for the old
// Conflicts%64 deadline gate: a hard instance under a 50ms deadline
// must come back Unknown within 2x the budget.
func TestDeadlineObservedPromptly(t *testing.T) {
	s := hardSolver()
	start := time.Now()
	got := s.Solve(Budget{Deadline: start.Add(50 * time.Millisecond)})
	elapsed := time.Since(start)
	if got != Unknown {
		t.Fatalf("Solve = %v, want unknown", got)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("50ms deadline overshot: solve took %v (want <= 100ms)", elapsed)
	}
	if !s.okay {
		t.Fatal("solver marked not-okay after deadline exhaustion")
	}
}

// TestDeadlineObservedAcrossRepeatedSolves exercises the cumulative
// conflict counter: earlier Solve calls leave s.stats.Conflicts at an
// arbitrary offset, which must not affect later deadline checks.
func TestDeadlineObservedAcrossRepeatedSolves(t *testing.T) {
	s := hardSolver()
	// Burn an odd number of conflicts so the cumulative counter sits
	// off any fixed modulus.
	s.Solve(Budget{Conflicts: 37})
	for i := 0; i < 3; i++ {
		start := time.Now()
		got := s.Solve(Budget{Deadline: start.Add(50 * time.Millisecond)})
		elapsed := time.Since(start)
		if got != Unknown {
			t.Fatalf("call %d: Solve = %v, want unknown", i, got)
		}
		if elapsed > 100*time.Millisecond {
			t.Fatalf("call %d: 50ms deadline overshot: %v", i, elapsed)
		}
	}
}

// TestExpiredDeadlineBuysNoSearch: a deadline already in the past must
// return Unknown without doing conflict work.
func TestExpiredDeadlineBuysNoSearch(t *testing.T) {
	s := hardSolver()
	before := s.Stats().Conflicts
	got := s.Solve(Budget{Deadline: time.Now().Add(-time.Second)})
	if got != Unknown {
		t.Fatalf("Solve = %v, want unknown", got)
	}
	if d := s.Stats().Conflicts - before; d != 0 {
		t.Fatalf("expired deadline still spent %d conflicts", d)
	}
}

// TestStopCancelsSolve verifies external cancellation: another
// goroutine raising the flag interrupts the search within a small
// bound, and the solver stays consistent and reusable afterwards.
func TestStopCancelsSolve(t *testing.T) {
	s := New(DefaultOptions())
	pigeonhole(s, 9, 8) // ~350ms of search when run to completion

	var stop atomic.Bool
	go func() {
		time.Sleep(10 * time.Millisecond)
		stop.Store(true)
	}()
	start := time.Now()
	got := s.Solve(Budget{Stop: &stop})
	elapsed := time.Since(start)
	if got != Unknown {
		t.Fatalf("cancelled Solve = %v, want unknown", got)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v to be observed", elapsed)
	}

	// The cancelled solver must be reusable: okay, trail backtracked to
	// level 0, and a fresh unbounded Solve reaches the right verdict.
	if !s.okay {
		t.Fatal("solver marked not-okay after cancellation")
	}
	if lvl := s.decisionLevel(); lvl != 0 {
		t.Fatalf("decision level %d after cancelled Solve, want 0", lvl)
	}
	if got := s.Solve(Budget{}); got != Unsat {
		t.Fatalf("re-Solve after cancel = %v, want unsat (PHP(9,8))", got)
	}
}

// TestStopPreRaised: a stop flag raised before Solve buys no search.
func TestStopPreRaised(t *testing.T) {
	s := hardSolver()
	var stop atomic.Bool
	stop.Store(true)
	before := s.Stats().Conflicts
	if got := s.Solve(Budget{Stop: &stop}); got != Unknown {
		t.Fatalf("Solve = %v, want unknown", got)
	}
	if d := s.Stats().Conflicts - before; d != 0 {
		t.Fatalf("pre-raised stop still spent %d conflicts", d)
	}
	// Lowering the flag makes the same budget usable again.
	stop.Store(false)
	if got := s.Solve(Budget{Stop: &stop, Conflicts: 50}); got != Unknown {
		t.Fatalf("Solve after lowering stop = %v, want unknown (conflict budget)", got)
	}
	if s.Stats().Conflicts == before {
		t.Fatal("expected search work after lowering the stop flag")
	}
}

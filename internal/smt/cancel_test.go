package smt

import (
	"sync/atomic"
	"testing"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/eval"
	"mbasolver/internal/parser"
)

// TestWitnessOnRewriterFold is the regression test for the empty
// Witness: when the rewriter folds the disequality query to a non-zero
// constant, the NotEquivalent result must still carry a concrete
// distinguishing assignment covering the query's variables.
func TestWitnessOnRewriterFold(t *testing.T) {
	pairs := [][2]string{
		{"x^x", "1"},
		{"x&~x", "5"},
		{"x|~x", "0"},
		{"(x&y)^(x&y)", "1"},
	}
	s := NewBoolectorSim()
	for _, p := range pairs {
		a, b := parser.MustParse(p[0]), parser.MustParse(p[1])
		// NoScreen: the pre-solve screen would refute these pairs
		// before the rewriter ever folds them; this test pins the
		// witness behaviour of the rewriter-fold path specifically.
		res := s.CheckEquiv(a, b, 8, Budget{NoScreen: true})
		if res.Status != NotEquivalent {
			t.Errorf("%q vs %q -> %v, want not-equivalent", p[0], p[1], res.Status)
			continue
		}
		if !res.Rewritten {
			t.Errorf("%q vs %q: expected a rewriter-only verdict", p[0], p[1])
		}
		if res.Witness == nil {
			t.Errorf("%q vs %q: nil witness", p[0], p[1])
			continue
		}
		env := eval.Env{}
		for k, v := range res.Witness {
			env[k] = v
		}
		if eval.Eval(a, env, 8) == eval.Eval(b, env, 8) {
			t.Errorf("%q vs %q: witness %v does not distinguish the sides",
				p[0], p[1], res.Witness)
		}
	}
}

// hardQuery returns the paper's Figure-1 polynomial identity, which at
// width 64 is far beyond any sub-second budget for all personalities.
func hardQuery(t *testing.T) (a, b *bv.Term) {
	t.Helper()
	const width = 64
	a = bv.FromExpr(parser.MustParse("x*y"), width)
	b = bv.FromExpr(parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)"), width)
	return a, b
}

// TestWallClockTimeoutWithinBound is the acceptance criterion for the
// deadline bugfix at the smt layer: a 50ms wall-clock budget on a hard
// non-linear MBA query must report Timeout within 2x the budget.
func TestWallClockTimeoutWithinBound(t *testing.T) {
	a, b := hardQuery(t)
	for _, s := range All() {
		start := time.Now()
		res := s.CheckTermEquiv(a, b, Budget{Timeout: 50 * time.Millisecond})
		elapsed := time.Since(start)
		if res.Status != Timeout {
			t.Errorf("%s: status %v after %v, want timeout", s.Name(), res.Status, elapsed)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("%s: 50ms budget overshot: %v (want <= 100ms)", s.Name(), elapsed)
		}
	}
}

// TestStopCancelsCheckTermEquiv: raising the budget's stop flag from
// another goroutine interrupts an unbounded query promptly.
func TestStopCancelsCheckTermEquiv(t *testing.T) {
	a, b := hardQuery(t)
	var stop atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		stop.Store(true)
	}()
	start := time.Now()
	res := NewBoolectorSim().CheckTermEquiv(a, b, Budget{Stop: &stop})
	elapsed := time.Since(start)
	if res.Status != Timeout {
		t.Fatalf("cancelled query returned %v, want timeout", res.Status)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("cancellation observed only after %v", elapsed)
	}
}

// TestStopCancelsSolveAssertions: the assertions entry point honours a
// pre-raised stop flag without doing any search.
func TestStopCancelsSolveAssertions(t *testing.T) {
	a, b := hardQuery(t)
	var stop atomic.Bool
	stop.Store(true)
	res := NewZ3Sim().SolveAssertions([]*bv.Term{bv.Predicate(bv.Ne, a, b)}, Budget{Stop: &stop})
	if res.Status != SatUnknown {
		t.Fatalf("cancelled SolveAssertions = %v, want unknown", res.Status)
	}
	if res.Conflicts != 0 {
		t.Fatalf("cancelled SolveAssertions spent %d conflicts", res.Conflicts)
	}
}

// TestSatModelWitnessCoversAllVars: SAT-model witnesses must include
// variables the rewriter eliminated, so replay never hits a missing
// key.
func TestSatModelWitnessCoversAllVars(t *testing.T) {
	// y&0 vanishes under rewriting, leaving a query over x only; the
	// witness must still assign y.
	a := parser.MustParse("x*x + (y&0)")
	b := parser.MustParse("x")
	// Decided without a conflict.
	res := NewBoolectorSim().CheckEquiv(a, b, 8, Budget{Conflicts: 1000})
	if res.Status != NotEquivalent {
		t.Fatalf("x*x+(y&0) vs x -> %v, want not-equivalent", res.Status)
	}
	for _, name := range []string{"x", "y"} {
		if _, ok := res.Witness[name]; !ok {
			t.Errorf("witness %v missing variable %q", res.Witness, name)
		}
	}
	env := eval.Env{}
	for k, v := range res.Witness {
		env[k] = v
	}
	if eval.Eval(a, env, 8) == eval.Eval(b, env, 8) {
		t.Errorf("witness %v does not distinguish the sides", res.Witness)
	}
}

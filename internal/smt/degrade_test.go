package smt

import (
	"testing"

	"mbasolver/internal/bv"
	"mbasolver/internal/fault"
	"mbasolver/internal/parser"
)

// These tests arm the process-global fault registry; they rely on the
// package's tests running sequentially and always disarm on exit.

// TestContextCorruptThenResetAnswersCorrectly is the context-corruption
// acceptance test: a context whose internal caches have been damaged
// must fully reset before serving again, and its verdicts afterwards
// must match a fresh solver's on every query — never a stale or
// scrambled cached answer.
func TestContextCorruptThenResetAnswersCorrectly(t *testing.T) {
	const width = 8
	pairs := diffCorpus(t)
	s := NewBoolectorSim()
	ctx := s.NewContext()
	// The costliest query takes 30063 conflicts (fresh; 24592 warm): a
	// 3.3× margin.
	budget := Budget{Conflicts: 100_000}

	// Warm every cache the corruption will later damage.
	for _, p := range pairs {
		ctx.CheckEquiv(p[0], p[1], width, budget)
	}

	ctx.Corrupt()
	if !ctx.poisoned {
		t.Fatal("Corrupt did not poison the context")
	}
	for i, p := range pairs {
		fresh := s.CheckEquiv(p[0], p[1], width, budget)
		inc := ctx.CheckEquiv(p[0], p[1], width, budget)
		if inc.Status != fresh.Status {
			t.Errorf("pair %d (%s vs %s): corrupted-then-reset context says %v, fresh solver %v",
				i, p[0], p[1], inc.Status, fresh.Status)
		}
	}
	if ctx.poisoned {
		t.Fatal("context still poisoned after serving queries")
	}
	if ctx.Stats().FullResets == 0 {
		t.Fatal("poisoned context served without a full reset")
	}
}

// TestInjectedPanicContainedAtBoundary: a panic raised inside the
// word-level phase degrades to Unknown/ReasonPanic on both the
// one-shot and incremental paths, and the very next query (fault
// disarmed) answers correctly.
func TestInjectedPanicContainedAtBoundary(t *testing.T) {
	defer fault.Disable()
	const width = 8
	a, b := parser.MustParse("x+y"), parser.MustParse("(x|y)+(x&y)")
	s := NewZ3Sim()
	// The query takes at most 167 conflicts: a 6× margin.
	budget := Budget{Conflicts: 1000}

	if err := fault.EnableSpec("smt.rewrite:hit=1"); err != nil {
		t.Fatal(err)
	}
	res := s.CheckEquiv(a, b, width, budget)
	if res.Status != Unknown || res.Reason != ReasonPanic {
		t.Fatalf("one-shot under injected panic: status=%v reason=%v, want unknown/panic", res.Status, res.Reason)
	}

	ctx := s.NewContext()
	if err := fault.EnableSpec("smt.rewrite:hit=1"); err != nil {
		t.Fatal(err)
	}
	res = ctx.CheckEquiv(a, b, width, budget)
	if res.Status != Unknown || res.Reason != ReasonPanic {
		t.Fatalf("context under injected panic: status=%v reason=%v, want unknown/panic", res.Status, res.Reason)
	}
	if !ctx.poisoned {
		t.Fatal("panic did not poison the context")
	}

	fault.Disable()
	if res := ctx.CheckEquiv(a, b, width, budget); res.Status != Equivalent {
		t.Fatalf("recovery query: status=%v, want equivalent", res.Status)
	}
}

// TestInjectedContextCorruptionResets: the smt.context site damages the
// context's caches for real before panicking; the boundary must poison
// it and the next query must answer correctly anyway.
func TestInjectedContextCorruptionResets(t *testing.T) {
	defer fault.Disable()
	const width = 8
	a, b := parser.MustParse("x^y"), parser.MustParse("(x|y)-(x&y)")
	ctx := NewBoolectorSim().NewContext()
	// The query takes at most 123 conflicts: an 8.1× margin.
	budget := Budget{Conflicts: 1000}

	if res := ctx.CheckEquiv(a, b, width, budget); res.Status != Equivalent {
		t.Fatalf("warmup: %v", res.Status)
	}
	if err := fault.EnableSpec("smt.context:hit=1"); err != nil {
		t.Fatal(err)
	}
	res := ctx.CheckEquiv(a, b, width, budget)
	if res.Status != Unknown || res.Reason != ReasonPanic {
		t.Fatalf("under corruption: status=%v reason=%v, want unknown/panic", res.Status, res.Reason)
	}
	fault.Disable()
	if res := ctx.CheckEquiv(a, b, width, budget); res.Status != Equivalent {
		t.Fatalf("post-corruption query: %v, want equivalent", res.Status)
	}
}

// TestResourceCapsDegradeToUnknown: both memory caps — circuit
// variables (MaxVars) and clause-database literals (MaxLits) — turn a
// query that would exceed them into Unknown/ReasonResource, on the
// one-shot and incremental paths alike.
func TestResourceCapsDegradeToUnknown(t *testing.T) {
	const width = 8
	// Needs real search: the basic rewriter cannot prove it, so the
	// verdict comes from the SAT core (conflicts and learned clauses).
	a, b := parser.MustParse("x+y"), parser.MustParse("(x|y)+y-(~x&y)")
	s := NewZ3Sim()
	// Uncapped, the query takes 358 conflicts: a 5.6× margin.
	const conflicts = 2000

	res := s.CheckEquiv(a, b, width, Budget{Conflicts: conflicts, MaxVars: 8})
	if res.Status != Unknown || res.Reason != ReasonResource {
		t.Fatalf("MaxVars cap: status=%v reason=%v, want unknown/resource", res.Status, res.Reason)
	}
	res = s.CheckEquiv(a, b, width, Budget{Conflicts: conflicts, MaxLits: 1})
	if res.Status != Unknown || res.Reason != ReasonResource {
		t.Fatalf("MaxLits cap: status=%v reason=%v, want unknown/resource", res.Status, res.Reason)
	}

	ctx := s.NewContext()
	res = ctx.CheckEquiv(a, b, width, Budget{Conflicts: conflicts, MaxVars: 8})
	if res.Status != Unknown || res.Reason != ReasonResource {
		t.Fatalf("context MaxVars cap: status=%v reason=%v, want unknown/resource", res.Status, res.Reason)
	}
	// The cap is per-query: the same context must answer uncapped.
	if res := ctx.CheckEquiv(a, b, width, Budget{Conflicts: conflicts}); res.Status != Equivalent {
		t.Fatalf("uncapped follow-up: %v, want equivalent", res.Status)
	}

	lhs := bv.FromExpr(parser.MustParse("(x|y)+y-(~x&y)"), width)
	rhs := bv.FromExpr(parser.MustParse("x+y"), width)
	sr := s.SolveAssertions([]*bv.Term{bv.Predicate(bv.Ne, lhs, rhs)},
		Budget{Conflicts: conflicts, MaxVars: 8})
	if sr.Status != SatUnknown || sr.Reason != ReasonResource {
		t.Fatalf("SolveAssertions MaxVars cap: status=%v reason=%v, want unknown/resource", sr.Status, sr.Reason)
	}
}

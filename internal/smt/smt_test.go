package smt

import (
	"math/rand"
	"testing"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/parser"
)

func TestIdentitiesEquivalent(t *testing.T) {
	pairs := [][2]string{
		{"x+y", "(x|y)+y-(~x&y)"},
		{"x+y", "(x^y)+2*y-2*(~x&y)"},
		{"x-y", "(x^y)+2*(x|~y)+2"},
		{"x|y", "(x&~y)+y"},
		{"x^y", "(x|y)-(x&y)"},
		{"x+y", "x+y"},
	}
	// The costliest pair takes 931 conflicts (btorsim): a 3.2× margin.
	budget := Budget{Conflicts: 3000}
	for _, s := range All() {
		for _, p := range pairs {
			res := s.CheckEquiv(parser.MustParse(p[0]), parser.MustParse(p[1]), 8, budget)
			if res.Status != Equivalent {
				t.Errorf("%s: %q == %q -> %v, want equivalent", s.Name(), p[0], p[1], res.Status)
			}
		}
	}
}

func TestNonIdentitiesRefuted(t *testing.T) {
	pairs := [][2]string{
		{"x+y", "x-y"},
		{"x&y", "x|y"},
		{"x*y", "x+y"},
		{"x", "y"},
		{"~x", "-x"}, // off by one
	}
	// Every pair is refuted without a conflict.
	budget := Budget{Conflicts: 1000}
	for _, s := range All() {
		for _, p := range pairs {
			a, b := parser.MustParse(p[0]), parser.MustParse(p[1])
			res := s.CheckEquiv(a, b, 8, budget)
			if res.Status != NotEquivalent {
				t.Errorf("%s: %q vs %q -> %v, want not-equivalent", s.Name(), p[0], p[1], res.Status)
				continue
			}
			// The witness must actually distinguish the sides, whether
			// it came from a SAT model or from probing after a
			// rewriter-only verdict.
			env := eval.Env{}
			for k, v := range res.Witness {
				env[k] = v
			}
			if eval.Eval(a, env, 8) == eval.Eval(b, env, 8) {
				t.Errorf("%s: witness %v does not distinguish %q and %q", s.Name(), res.Witness, p[0], p[1])
			}
		}
	}
}

func TestBtorsimRewriterFastPath(t *testing.T) {
	// Identical structure after full rewriting: x&y vs y&x decides at
	// the word level without any SAT search.
	s := NewBoolectorSim()
	res := s.CheckEquiv(parser.MustParse("x&y"), parser.MustParse("y&x"), 16, Budget{})
	if res.Status != Equivalent || !res.Rewritten {
		t.Errorf("btorsim on x&y vs y&x: %+v, want rewritten-equivalent", res)
	}
}

func TestConflictBudgetTimesOut(t *testing.T) {
	// The Figure-1 poly identity at a width where the multiplier
	// circuit is hard, with a tiny conflict budget, must time out.
	a := parser.MustParse("x*y")
	b := parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)")
	for _, s := range All() {
		res := s.CheckEquiv(a, b, 16, Budget{Conflicts: 50})
		if res.Status != Timeout {
			t.Errorf("%s: expected timeout with 50-conflict budget, got %v after %d conflicts",
				s.Name(), res.Status, res.Conflicts)
		}
	}
}

func TestFigure1IdentityAtSmallWidth(t *testing.T) {
	// With enough budget the paper's Figure-1 identity is provable at
	// small widths even without simplification.
	a := parser.MustParse("x*y")
	b := parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)")
	s := NewBoolectorSim()
	// It takes 191 conflicts: a 5.2× margin.
	res := s.CheckEquiv(a, b, 4, Budget{Conflicts: 1000})
	if res.Status != Equivalent {
		t.Errorf("figure-1 identity at width 4: %v, want equivalent", res.Status)
	}
}

func TestCheckZero(t *testing.T) {
	s := NewZ3Sim()
	// x - y - (x^y) - 2*(x|~y) - 2 == 0 (Example 1 rearranged).
	e := parser.MustParse("x - y - (x^y) - 2*(x|~y) - 2")
	// It takes 330 conflicts: a 3× margin.
	if res := s.CheckEquiv(e, expr.Const(0), 8, Budget{Conflicts: 1000}); res.Status != Equivalent {
		t.Errorf("CheckEquiv(example 1, 0) = %v, want equivalent", res.Status)
	}
	if res := s.CheckEquiv(parser.MustParse("x+1"), expr.Const(0), 8, Budget{}); res.Status != NotEquivalent {
		t.Errorf("CheckEquiv(x+1, 0) = %v, want not-equivalent", res.Status)
	}
}

func TestRandomEquivalencesAgainstEval(t *testing.T) {
	// Differential test: for random small expressions, the solver's
	// verdict must agree with exhaustive evaluation at width 3.
	rng := rand.New(rand.NewSource(17))
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return []string{"x", "y", "1", "2"}[rng.Intn(4)]
		}
		ops := []string{"+", "-", "*", "&", "|", "^"}
		return "(" + gen(depth-1) + ops[rng.Intn(len(ops))] + gen(depth-1) + ")"
	}
	s := NewBoolectorSim()
	for round := 0; round < 30; round++ {
		a := parser.MustParse(gen(2))
		b := parser.MustParse(gen(2))
		want := true
		for x := uint64(0); x < 8 && want; x++ {
			for y := uint64(0); y < 8; y++ {
				env := eval.Env{"x": x, "y": y}
				if eval.Eval(a, env, 3) != eval.Eval(b, env, 3) {
					want = false
					break
				}
			}
		}
		// Every round is decided without a conflict.
		res := s.CheckEquiv(a, b, 3, Budget{Conflicts: 1000})
		got := res.Status == Equivalent
		if res.Status == Timeout {
			t.Fatalf("unexpected timeout on tiny query %v vs %v", a, b)
		}
		if got != want {
			t.Errorf("round %d: solver says %v, brute force says %v (%v vs %v)",
				round, res.Status, want, a, b)
		}
	}
}

func TestThroughputModelScalesBudgets(t *testing.T) {
	// btorsim's modeled engine speed must grant it more effective
	// conflicts than z3sim under the same nominal budget.
	z, b := NewZ3Sim(), NewBoolectorSim()
	if got := z.scaledConflicts(1000); got != 1000 {
		t.Errorf("z3sim scaled = %d, want 1000", got)
	}
	if got := b.scaledConflicts(1000); got != 4000 {
		t.Errorf("btorsim scaled = %d, want 4000", got)
	}
	if got := b.scaledConflicts(0); got != 0 {
		t.Errorf("unlimited budget must stay unlimited, got %d", got)
	}
}

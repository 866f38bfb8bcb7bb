package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/metrics"
	"mbasolver/internal/truthtable"
)

// randLinearMBA builds a random linear MBA over the given variables.
func randLinearMBA(rng *rand.Rand, vars []string, nTerms int) *expr.Expr {
	var randBitwise func(depth int) *expr.Expr
	randBitwise = func(depth int) *expr.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			v := expr.Var(vars[rng.Intn(len(vars))])
			if rng.Intn(3) == 0 {
				return expr.Not(v)
			}
			return v
		}
		ops := []expr.Op{expr.OpAnd, expr.OpOr, expr.OpXor}
		return expr.Binary(ops[rng.Intn(3)], randBitwise(depth-1), randBitwise(depth-1))
	}
	acc := expr.Mul(expr.Const(uint64(rng.Intn(9)+1)), randBitwise(2))
	for i := 1; i < nTerms; i++ {
		term := expr.Mul(expr.Const(uint64(rng.Intn(9)+1)), randBitwise(2))
		if rng.Intn(2) == 0 {
			acc = expr.Sub(acc, term)
		} else {
			acc = expr.Add(acc, term)
		}
	}
	return acc
}

// TestPropertySimplifyPreservesSemantics: the foundational guarantee.
func TestPropertySimplifyPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars := []string{"x", "y", "z"}[:1+rng.Intn(3)]
		in := randLinearMBA(rng, vars, 2+rng.Intn(6))
		s := Default()
		out := s.Simplify(in)
		eq, _ := eval.ProbablyEqual(rng, in, out, 64, 50)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertySignatureInvariant: simplification preserves the
// signature vector exactly (a stronger, deterministic check for linear
// inputs).
func TestPropertySignatureInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars := []string{"x", "y"}
		in := randLinearMBA(rng, vars, 2+rng.Intn(6))
		out := Default().Simplify(in)
		si := truthtable.Compute(in, vars, 64)
		so := truthtable.Compute(out, vars, 64)
		return si.Equal(so)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLinearNormalFormIsCanonical: two random linear MBAs with
// the same signature must simplify to the identical expression (the
// normalized form is a canonical form for linear MBA).
func TestPropertyLinearNormalFormIsCanonical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars := []string{"x", "y"}
		a := randLinearMBA(rng, vars, 2+rng.Intn(5))
		sig := truthtable.Compute(a, vars, 64)
		// Build b = a + (random zero): reuse a's terms reshuffled via
		// Canon plus a vanishing pair.
		pad := randLinearMBA(rng, vars, 2)
		b := expr.Add(expr.Sub(a, pad), pad)
		if !truthtable.Compute(b, vars, 64).Equal(sig) {
			return false // would indicate an eval bug
		}
		s := Default()
		return expr.Equal(s.Simplify(a), s.Simplify(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAlternationNeverGrowsOnLinear: for linear inputs the
// normalized output's alternation is bounded by the input's.
func TestPropertyAlternationNeverGrowsOnLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randLinearMBA(rng, []string{"x", "y"}, 3+rng.Intn(5))
		out := Default().Simplify(in)
		return metrics.Alternation(out) <= metrics.Alternation(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxVarsBailout(t *testing.T) {
	// One bitwise leaf over seven distinct variables exceeds the
	// signature budget (truthtable.MaxVars is 6): the simplifier must
	// keep it as an opaque atom, record the bailout and preserve
	// semantics.
	in := parserMust("(a&b&c&d&e&f&g) + x - x")
	s := Default()
	out := s.Simplify(in)
	rng := rand.New(rand.NewSource(9))
	if eq, w := eval.ProbablyEqual(rng, in, out, 64, 100); !eq {
		t.Fatalf("bailout broke semantics: %v at %v", out, w)
	}
	if s.Stats().Bailouts == 0 {
		t.Error("expected a bailout to be recorded")
	}
}

func TestWideSumNormalizes(t *testing.T) {
	// Seven variables in all, but every bitwise leaf has at most two:
	// the sum normalizes leaf by leaf over the conjunction basis, with
	// no bailout. The atoms come out in the polynomial's sorted order.
	in := parserMust("(a&b) + (c&d) + (e&f) + (g&a) + a - a")
	s := Default()
	out := s.Simplify(in)
	if want := "(a&b)+(a&g)+(c&d)+(e&f)"; out.String() != want {
		t.Errorf("Simplify(%v) = %v, want %v", in, out, want)
	}
	if n := s.Stats().Bailouts; n != 0 {
		t.Errorf("Bailouts = %d, want 0", n)
	}
	rng := rand.New(rand.NewSource(9))
	if eq, w := eval.ProbablyEqual(rng, in, out, 64, 100); !eq {
		t.Fatalf("wide sum broke semantics: %v at %v", out, w)
	}
}

func TestCSEStatsRecorded(t *testing.T) {
	s := Default()
	s.Simplify(parserMust("(((x&~y) - (~x&y))|z) + (((x&~y) - (~x&y))&z)"))
	if s.Stats().CSEHits == 0 {
		t.Error("expected CSE hits on the paper's shared-subtree example")
	}
	if s.Stats().Abstractions == 0 {
		t.Error("expected abstractions to be recorded")
	}
}

func TestLookupTableHits(t *testing.T) {
	s := Default()
	// The same signature appears twice; the second must hit the table.
	s.Simplify(parserMust("(x|y) + y - (~x&y)"))
	miss1 := s.Stats().TableMisses
	s.Simplify(parserMust("(x|y) + y - (~x&y)"))
	if s.Stats().TableHits == 0 {
		t.Error("expected look-up table hits on repeated signatures")
	}
	if s.Stats().TableMisses != miss1 {
		t.Error("second run should not miss")
	}
}

func TestDisabledTableStillCorrect(t *testing.T) {
	s := New(Options{DisableTable: true})
	out := s.Simplify(parserMust("(x|y) + y - (~x&y)"))
	if out.String() != "x+y" {
		t.Errorf("table-less simplify = %q", out)
	}
	if s.Stats().TableHits != 0 {
		t.Error("disabled table recorded hits")
	}
}

func TestDeepNestingTerminates(t *testing.T) {
	// A tower of alternating operators must terminate within the
	// recursion bound.
	e := parserMust("x")
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			e = expr.Not(expr.Add(e, expr.Const(1)))
		} else {
			e = expr.Neg(expr.Or(e, expr.Var("y")))
		}
	}
	s := Default()
	out := s.Simplify(e)
	rng := rand.New(rand.NewSource(10))
	if eq, w := eval.ProbablyEqual(rng, e, out, 64, 30); !eq {
		t.Fatalf("deep nesting broke semantics at %v", w)
	}
}

func TestProductBlowupStaysBounded(t *testing.T) {
	// A product of 20 binomials over distinct variables expands to 2^20
	// terms. Alone and under a bitwise operator beside a second bound
	// subtree (which expands it for the complement check), it must
	// stop at the size budget, record a bailout and keep its meaning.
	prod := expr.Add(expr.Var("v0"), expr.Var("w0"))
	for i := 1; i < 20; i++ {
		prod = expr.Mul(prod, expr.Add(expr.Var(fmt.Sprintf("v%d", i)), expr.Var(fmt.Sprintf("w%d", i))))
	}
	for _, in := range []*expr.Expr{
		prod,
		expr.Add(expr.And(prod, expr.Var("x")), expr.Or(expr.Add(prod, expr.Const(1)), expr.Var("y"))),
	} {
		s := Default()
		out := s.Simplify(in)
		if s.Stats().Bailouts == 0 {
			t.Errorf("Simplify(%v): expected a bailout to be recorded", in)
		}
		rng := rand.New(rand.NewSource(12))
		if eq, w := eval.ProbablyEqual(rng, in, out, 64, 30); !eq {
			t.Fatalf("Simplify(%v) broke semantics at %v", in, w)
		}
	}
}

func TestWidthSpecificSimplification(t *testing.T) {
	// 16*x + 16*x == 32*x everywhere, but at width 5 the constant 32
	// vanishes: width-5 simplification must produce 0.
	s := New(Options{Width: 5})
	out := s.Simplify(parserMust("16*x + 16*x"))
	if !out.IsConst(0) {
		t.Errorf("width-5 simplify(32x) = %v, want 0", out)
	}
	// At width 64 it must stay 32*x.
	out64 := Default().Simplify(parserMust("16*x + 16*x"))
	rng := rand.New(rand.NewSource(11))
	if eq, _ := eval.ProbablyEqual(rng, out64, parserMust("32*x"), 64, 50); !eq {
		t.Errorf("width-64 simplify(16x+16x) = %v", out64)
	}
}

package core

import (
	"math/rand"
	"testing"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/metrics"
	"mbasolver/internal/parser"
)

// checkSimplify asserts that Simplify(input) == want textually and that
// the output is random-testing-equivalent to the input.
func checkSimplify(t *testing.T, s *Simplifier, input, want string) {
	t.Helper()
	in := parser.MustParse(input)
	got := s.Simplify(in)
	if got.String() != want {
		t.Errorf("Simplify(%q) = %q, want %q", input, got.String(), want)
	}
	rng := rand.New(rand.NewSource(1))
	if eq, env := eval.ProbablyEqual(rng, in, got, 64, 200); !eq {
		t.Errorf("Simplify(%q) changed semantics: %v on %v", input, got, env)
	}
}

// checkEquiv asserts semantic equivalence only (for cases where the
// exact rendering is an implementation detail).
func checkEquiv(t *testing.T, s *Simplifier, input, want string) {
	t.Helper()
	in := parser.MustParse(input)
	got := s.Simplify(in)
	rng := rand.New(rand.NewSource(7))
	if eq, env := eval.ProbablyEqual(rng, got, parser.MustParse(want), 64, 300); !eq {
		t.Errorf("Simplify(%q) = %q, not equivalent to %q (env %v)", input, got, want, env)
	}
}

func TestSimplifyPaperExample2(t *testing.T) {
	// §4.3: 2(x|y) - (~x&y) - (x&~y) = x + y, alternation 3 -> 0.
	s := Default()
	checkSimplify(t, s, "2*(x|y) - (~x&y) - (x&~y)", "x+y")
}

func TestSimplifyPaperFigure1(t *testing.T) {
	// Figure 1 / §4.4: (x&~y)*(~x&y) + (x&y)*(x|y) = x*y.
	s := Default()
	checkSimplify(t, s, "(x&~y)*(~x&y) + (x&y)*(x|y)", "x*y")
}

func TestSimplifyPaperCSEExample(t *testing.T) {
	// §4.5: ((x&~y - ~x&y)|z) + ((x&~y - ~x&y)&z) = x - y + z.
	s := Default()
	checkEquiv(t, s, "(((x&~y) - (~x&y))|z) + (((x&~y) - (~x&y))&z)", "x-y+z")
}

func TestSimplifyNotXMinus1(t *testing.T) {
	// §6.1: ~(x-1) = -x; the paper's prototype misses this, ours does
	// not because ¬a = −a−1 falls out of signature abstraction plus the
	// fixpoint loop.
	s := Default()
	checkSimplify(t, s, "~(x-1)", "-x")
}

func TestSimplifyXorFold(t *testing.T) {
	// §4.5 final-step optimization: x + y - 2(x&y) = x^y.
	s := Default()
	checkSimplify(t, s, "x + y - 2*(x&y)", "x^y")
}

func TestSimplifyExample1Identity(t *testing.T) {
	// §2.1 Example 1: x - y = (x^y) + 2*(x|~y) + 2.
	s := Default()
	checkSimplify(t, s, "(x^y) + 2*(x|~y) + 2", "x-y")
}

func TestSimplifyHackersDelightAdditions(t *testing.T) {
	// §2.2: four published obfuscations of x+y.
	s := Default()
	for _, in := range []string{
		"(x|y) + (~x|y) - ~x",
		"(x|y) + y - (~x&y)",
		"(x^y) + 2*y - 2*(~x&y)",
		"y + (x&~y) + (x&y)",
	} {
		checkSimplify(t, s, in, "x+y")
	}
}

func TestSimplifyBackgroundIdentities(t *testing.T) {
	// Equations (2) and (3) of §2.1.
	s := Default()
	checkEquiv(t, s, "(x&~y) + y", "x|y")
	checkEquiv(t, s, "(x|y) - (x&y)", "x^y")
}

func TestTable5Rows(t *testing.T) {
	// Every derivative row of Table 5: the expression in the MBA
	// column must have exactly the stated signature vector, and
	// simplifying a synthetic expression with that signature must give
	// an equivalent result.
	rows := []struct {
		sig [4]uint64
		mba string
	}{
		{[4]uint64{0, 0, 1, 1}, "x"},
		{[4]uint64{0, 1, 0, 1}, "y"},
		{[4]uint64{0, 0, 0, 1}, "x&y"},
		{[4]uint64{1, 1, 1, 1}, "-1"},
		{[4]uint64{0, 0, 0, 0}, "0"},
		{[4]uint64{0, 0, 1, 0}, "x - (x&y)"},
		{[4]uint64{0, 1, 0, 0}, "y - (x&y)"},
		{[4]uint64{0, 1, 1, 0}, "x + y - 2*(x&y)"},
		{[4]uint64{0, 1, 1, 1}, "x + y - (x&y)"},
		{[4]uint64{1, 0, 0, 0}, "-x - y + (x&y) - 1"},
		{[4]uint64{1, 0, 0, 1}, "-x - y + 2*(x&y) - 1"},
		{[4]uint64{1, 0, 1, 0}, "-y - 1"},
		{[4]uint64{1, 0, 1, 1}, "-y + (x&y) - 1"},
		{[4]uint64{1, 1, 0, 0}, "-x - 1"},
		{[4]uint64{1, 1, 0, 1}, "-x + (x&y) - 1"},
		{[4]uint64{1, 1, 1, 0}, "-(x&y) - 1"},
	}
	s := Default()
	for _, row := range rows {
		e := parser.MustParse(row.mba)
		sig := signatureOf(t, e)
		if sig != row.sig {
			t.Errorf("signature(%q) = %v, want %v", row.mba, sig, row.sig)
		}
		got := s.Simplify(e)
		rng := rand.New(rand.NewSource(3))
		if eq, _ := eval.ProbablyEqual(rng, got, e, 64, 100); !eq {
			t.Errorf("Simplify(%q) = %q is not equivalent", row.mba, got)
		}
	}
}

func signatureOf(t *testing.T, e *expr.Expr) [4]uint64 {
	t.Helper()
	env := func(x, y uint64) eval.Env { return eval.Env{"x": x, "y": y} }
	all1 := ^uint64(0)
	var sig [4]uint64
	sig[0] = -eval.Eval(e, env(0, 0), 64)
	sig[1] = -eval.Eval(e, env(0, all1), 64)
	sig[2] = -eval.Eval(e, env(all1, 0), 64)
	sig[3] = -eval.Eval(e, env(all1, all1), 64)
	return sig
}

func TestSimplifyReducesAlternation(t *testing.T) {
	cases := []string{
		"2*(x|y) - (~x&y) - (x&~y)",
		"(x^y) + 2*y - 2*(~x&y)",
		"(x&~y)*(~x&y) + (x&y)*(x|y)",
		"(((x&~y) - (~x&y))|z) + (((x&~y) - (~x&y))&z)",
	}
	s := Default()
	for _, in := range cases {
		e := parser.MustParse(in)
		got := s.Simplify(e)
		before, after := metrics.Alternation(e), metrics.Alternation(got)
		if after > before {
			t.Errorf("Simplify(%q): alternation grew %d -> %d (%q)", in, before, after, got)
		}
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	s := Default()
	for _, in := range []string{
		"2*(x|y) - (~x&y) - (x&~y)",
		"(x&~y)*(~x&y) + (x&y)*(x|y)",
		"x^y",
		"x*y",
		"~(x-1)",
	} {
		once := s.Simplify(parser.MustParse(in))
		twice := s.Simplify(once)
		if !expr.Equal(once, twice) {
			t.Errorf("Simplify(%q) not idempotent: %q then %q", in, once, twice)
		}
	}
}

func TestSimplifyDisjunctionBasis(t *testing.T) {
	s := New(Options{Basis: BasisDisjunction})
	// Correctness only: the disjunction basis must still produce an
	// equivalent expression.
	for _, in := range []string{
		"2*(x|y) - (~x&y) - (x&~y)",
		"(x&~y) + y",
		"x + y - 2*(x&y)",
	} {
		e := parser.MustParse(in)
		got := s.Simplify(e)
		rng := rand.New(rand.NewSource(11))
		if eq, env := eval.ProbablyEqual(rng, e, got, 64, 200); !eq {
			t.Errorf("disjunction basis broke %q -> %q (env %v)", in, got, env)
		}
	}
}

func TestSimplifyConstants(t *testing.T) {
	s := Default()
	checkSimplify(t, s, "(x|~x) + 1", "0") // -1 + 1
	checkSimplify(t, s, "x - x", "0")
	checkSimplify(t, s, "(x&y) - (x&y)", "0")
	checkSimplify(t, s, "5", "5")
	checkSimplify(t, s, "x + 3 - 3", "x")
}

func TestSimplifyComplementAtoms(t *testing.T) {
	// -(x*y)-1 = ~(x*y): abstraction binds both to one temporary u, and
	// (u&y) + (~u&y) = y collapses the sum, in either order.
	for _, in := range []string{
		"x*y-2*(x*y&y)-2*(-(x*y)-1&y)+y",
		"x*y-2*(-(x*y)-1&y)-2*(x*y&y)+y",
	} {
		s := Default()
		checkSimplify(t, s, in, "x*y-y")
		if s.Stats().CSEHits == 0 {
			t.Errorf("Simplify(%q): complement link not counted in CSEHits", in)
		}
	}
}

func TestSimplifyComplementConstants(t *testing.T) {
	// Constants under a bitwise operator are bound too, and -2 = ~1.
	s := Default()
	checkSimplify(t, s, "(1&x)+(-2&x)", "x")
	checkSimplify(t, s, "(-2&x*y)+(1&x*y)", "x*y")
}

func TestSimplifyFoldsUnderBitwise(t *testing.T) {
	// Under a bitwise parent, u+v-(u&v) over the products u = x*z and
	// v = y*z folds to u|v, so (u|v)&u normalizes to u.
	s := Default()
	checkSimplify(t, s, "(x*z+y*z-(x*z&y*z))&x*z", "x*z")
	checkSimplify(t, s, "3*x*z-y*z-2*(x*z+y*z-(x*z&y*z)&x*z)", "x*z-y*z")
	// u-(u&y) is u&~y, and (u&~y)&y is 0.
	checkSimplify(t, s, "(x*y-(x*y&y))&y", "0")
	// DisableFinalOpt keeps the linear form under the parent too.
	const in = "x*z+y*z-(x*z&y*z)&x*z" // & binds looser than + and -
	checkSimplify(t, New(Options{DisableFinalOpt: true}), in, in)
}

func TestDisableCSEUnlinksComplements(t *testing.T) {
	// DisableCSE turns off complement sharing with the rest of CSE: the
	// two temporaries stay unrelated and the sum stays unsimplified.
	s := New(Options{DisableCSE: true})
	const in = "x*y-2*(x*y&y)-2*(-(x*y)-1&y)+y"
	checkSimplify(t, s, in, in)
	if s.Stats().CSEHits != 0 {
		t.Errorf("DisableCSE: CSEHits = %d, want 0", s.Stats().CSEHits)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := Default()
	s.Simplify(parser.MustParse("2*(x|y) - (~x&y) - (x&~y)"))
	st := s.Stats()
	if st.Signatures == 0 {
		t.Error("expected signature computations to be counted")
	}
	s.ResetStats()
	if s.Stats().Signatures != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

// parserMust is a test-local alias to keep property tests terse.
func parserMust(src string) *expr.Expr { return parser.MustParse(src) }

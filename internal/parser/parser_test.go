package parser

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
)

func TestParseBasics(t *testing.T) {
	cases := []struct{ in, want string }{
		{"x", "x"},
		{"42", "42"},
		{"0x10", "16"},
		{"x+y*z", "x+y*z"},
		{"(x+y)*z", "(x+y)*z"},
		{"x & y | z ^ w", "x&y|z^w"},
		{"~x", "~x"},
		{"-x", "-x"},
		{"--x", "-(-x)"},
		{"~~x", "~~x"},
		{"x - -y", "x--y"},
		{"2*(x|y) - (~x&y)", "2*(x|y)-(~x&y)"},
		{"  x  +  1 ", "x+1"},
		{"x+y+z", "x+y+z"},
		{"x-(y-z)", "x-(y-z)"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		// Round trip: the printed form must parse back to the same tree.
		e2, err := Parse(e.String())
		if err != nil {
			t.Errorf("reparse of %q (-> %q): %v", c.in, e.String(), err)
			continue
		}
		if !expr.Equal(e, e2) {
			t.Errorf("round trip of %q: %q != %q", c.in, e, e2)
		}
	}
}

func TestPrecedenceMatchesC(t *testing.T) {
	// In C (and Python), & binds tighter than ^, which binds tighter
	// than |; all bind looser than + - *.
	e := MustParse("a|b^c&d+e*f")
	want := expr.Or(
		expr.Var("a"),
		expr.Xor(
			expr.Var("b"),
			expr.And(
				expr.Var("c"),
				expr.Add(expr.Var("d"), expr.Mul(expr.Var("e"), expr.Var("f"))))))
	if !expr.Equal(e, want) {
		t.Errorf("precedence parse: %v", e)
	}
}

func TestUnaryBinding(t *testing.T) {
	// ~x&y is (~x)&y, -x*y is (-x)*y.
	if got := MustParse("~x&y"); !expr.Equal(got, expr.And(expr.Not(expr.Var("x")), expr.Var("y"))) {
		t.Errorf("~x&y = %v", got)
	}
	if got := MustParse("-x*y"); !expr.Equal(got, expr.Mul(expr.Neg(expr.Var("x")), expr.Var("y"))) {
		t.Errorf("-x*y = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "x+", "(x", "x)", "x y", "x++", "0x", "x & & y", "x$y", "1 2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error is %T, want *SyntaxError", bad, err)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("x + $")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos != 4 {
		t.Errorf("error position %d, want 4", se.Pos)
	}
	if !strings.Contains(se.Error(), "offset 4") {
		t.Errorf("error text %q", se.Error())
	}
}

func TestBigConstants(t *testing.T) {
	e := MustParse("18446744073709551615") // 2^64-1
	if !e.IsConst(^uint64(0)) {
		t.Errorf("2^64-1 parsed as %v", e)
	}
	e = MustParse("18446744073709551616") // 2^64 wraps to 0
	if !e.IsConst(0) {
		t.Errorf("2^64 parsed as %v", e)
	}
	e = MustParse("0xdeadbeef")
	if !e.IsConst(0xdeadbeef) {
		t.Errorf("hex parsed as %v", e)
	}
}

// randomExpr builds a random tree for the round-trip property.
func randomExpr(rng *rand.Rand, depth int) *expr.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return expr.Const(uint64(rng.Intn(100)))
		default:
			return expr.Var([]string{"x", "y", "z", "w"}[rng.Intn(4)])
		}
	}
	switch rng.Intn(8) {
	case 0:
		return expr.Not(randomExpr(rng, depth-1))
	case 1:
		return expr.Neg(randomExpr(rng, depth-1))
	default:
		ops := []expr.Op{expr.OpAnd, expr.OpOr, expr.OpXor, expr.OpAdd, expr.OpSub, expr.OpMul}
		return expr.Binary(ops[rng.Intn(len(ops))], randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	}
}

// TestPrintParseRoundTripProperty: for arbitrary trees, print->parse
// preserves structure exactly (testing/quick drives the seeds).
func TestPrintParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 5)
		parsed, err := Parse(e.String())
		if err != nil {
			t.Logf("seed %d: %v on %q", seed, err, e.String())
			return false
		}
		if !expr.Equal(e, parsed) {
			t.Logf("seed %d: %q reparsed as %q", seed, e, parsed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripPreservesSemantics: even if structure differed, the
// semantics must survive printing (this catches precedence bugs that
// happen to produce parseable output).
func TestRoundTripPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		parsed, err := Parse(e.String())
		if err != nil {
			return false
		}
		eq, _ := eval.ProbablyEqual(rng, e, parsed, 64, 30)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParseNonASCII: identifiers are ASCII only. A non-ASCII character,
// valid UTF-8 or not, is an unexpected character named by its decoded
// rune at its first byte's offset.
func TestParseNonASCII(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"µ", `parse error at offset 0: unexpected character 'µ'`},
		{"x\xe9", `parse error at offset 1: unexpected character '�'`},
		{"é+1", `parse error at offset 0: unexpected character 'é'`},
	} {
		e, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) = %v, want error", c.in, e)
		} else if err.Error() != c.want {
			t.Errorf("Parse(%q) error %q, want %q", c.in, err, c.want)
		}
	}
}

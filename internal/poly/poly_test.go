package poly

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/parser"
)

func fromSrc(t *testing.T, src string, width uint) *Poly {
	t.Helper()
	return FromExpr(parser.MustParse(src), width, Atoms(width, CanonAtom))
}

func TestPaperWorkedExample(t *testing.T) {
	// §4.4: (x - x&y)*(y - x&y) + (x&y)*(x + y - x&y) = x*y after
	// expansion and cancellation.
	p := fromSrc(t, "(x - (x&y))*(y - (x&y)) + (x&y)*(x + y - (x&y))", 64)
	want := fromSrc(t, "x*y", 64)
	if !p.Equal(want) {
		t.Fatalf("expansion = %v, want x*y", p.ToExpr())
	}
}

func TestCancellationToZero(t *testing.T) {
	p := fromSrc(t, "(x+y)*(x-y) - x*x + y*y", 64)
	if !p.IsZero() {
		t.Fatalf("should cancel to zero, got %v", p.ToExpr())
	}
}

func TestIsConst(t *testing.T) {
	if v, ok := fromSrc(t, "3+4", 64).IsConst(); !ok || v != 7 {
		t.Errorf("IsConst(3+4) = %d,%v", v, ok)
	}
	if _, ok := fromSrc(t, "x+1", 64).IsConst(); ok {
		t.Error("x+1 reported constant")
	}
	if v, ok := fromSrc(t, "x-x", 64).IsConst(); !ok || v != 0 {
		t.Errorf("IsConst(x-x) = %d,%v", v, ok)
	}
}

func TestDegreesAndTerms(t *testing.T) {
	p := fromSrc(t, "x*y*z + 2*x - 5", 64)
	if p.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", p.MaxDegree())
	}
	if p.NumTerms() != 3 {
		t.Errorf("NumTerms = %d", p.NumTerms())
	}
}

func TestWidthReduction(t *testing.T) {
	// 256*x vanishes at width 8.
	p := fromSrc(t, "256*x", 8)
	if !p.IsZero() {
		t.Fatalf("256x mod 2^8 should be zero, got %v", p.ToExpr())
	}
}

func TestAtomUnification(t *testing.T) {
	// x&y and y&x must become the same atom after Canon.
	p := fromSrc(t, "(x&y) - (y&x)", 64)
	if !p.IsZero() {
		t.Fatalf("(x&y)-(y&x) should cancel, got %v", p.ToExpr())
	}
}

func TestToExprRoundTripSemantics(t *testing.T) {
	// Property: expansion and re-rendering preserve semantics.
	srcs := []string{
		"(x+2)*(y-3)",
		"(x&y)*(x&y) - x*y",
		"-(x*(y+z))",
		"7*x - 2*y*(z+1) + 4",
		"(x - (x&y))*(y - (x&y)) + (x&y)*(x + y - (x&y))",
	}
	rng := rand.New(rand.NewSource(5))
	for _, src := range srcs {
		in := parser.MustParse(src)
		out := FromExpr(in, 64, Atoms(64, CanonAtom)).ToExpr()
		if eq, env := eval.ProbablyEqual(rng, in, out, 64, 100); !eq {
			t.Errorf("%q expanded to %q; differs at %v", src, out, env)
		}
	}
}

func TestRingLawsProperty(t *testing.T) {
	// (a+b)*c == a*c + b*c as polynomials, for random expressions.
	var genExpr func(rng *rand.Rand, d int) *expr.Expr
	genExpr = func(rng *rand.Rand, d int) *expr.Expr {
		if d == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return expr.Const(uint64(rng.Intn(10)))
			case 1:
				return expr.Var("x")
			default:
				return expr.And(expr.Var("x"), expr.Var("y"))
			}
		}
		ops := []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul}
		return expr.Binary(ops[rng.Intn(3)], genExpr(rng, d-1), genExpr(rng, d-1))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := genExpr(rng, 2), genExpr(rng, 2), genExpr(rng, 2)
		expand := func(e *expr.Expr) *Poly { return FromExpr(e, 64, Atoms(64, CanonAtom)) }
		lhs := New(64).AddMul(expand(expr.Add(a, b)), expand(c), 1)
		rhs := New(64).AddMul(expand(a), expand(c), 1).AddMul(expand(b), expand(c), 1)
		if !lhs.Equal(rhs) || !lhs.Equal(expand(expr.Mul(expr.Add(a, b), c))) {
			return false
		}
		// a - a == 0 and -(-a) == a.
		if !expand(expr.Sub(a, a)).IsZero() {
			return false
		}
		return expand(expr.Neg(expr.Neg(a))).Equal(expand(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulConst(t *testing.T) {
	want := fromSrc(t, "3*x+6", 64)
	for _, src := range []string{"3*(x+2)", "(x+2)*3", "-3*(-x-2)"} {
		if p := fromSrc(t, src, 64); !p.Equal(want) {
			t.Fatalf("%s = %v", src, p.ToExpr())
		}
	}
}

func TestAtomsListing(t *testing.T) {
	p := fromSrc(t, "x*(y&z) + (y&z)*(y&z)", 64)
	atoms := p.Atoms()
	if len(atoms) != 2 {
		t.Fatalf("Atoms = %d, want 2 (x and y&z)", len(atoms))
	}
}

func TestToExprSignedRendering(t *testing.T) {
	p := fromSrc(t, "0-x-5", 64)
	s := p.ToExpr().String()
	// Must render with subtraction, not giant unsigned constants.
	if len(s) > 10 {
		t.Errorf("signed rendering too verbose: %q", s)
	}
}

func TestZeroPolyToExpr(t *testing.T) {
	if got := New(64).ToExpr(); !got.IsConst(0) {
		t.Errorf("zero poly renders as %v", got)
	}
}

// TestLeftDeepSumAllocsLinear expands x0 + x1 + ... + x1023 built
// left-deep, the shape a parser gives a long sum. Folding it with Add
// would clone the growing polynomial at every step (about k²/2 term
// copies for k terms); the expansion adds every leaf in place, so a new
// term costs its monomial (factor slice and key, two allocations) plus
// the amortized growth of the term slice and index — about 2.0 per
// term, bounded at 3.
func TestLeftDeepSumAllocsLinear(t *testing.T) {
	const k = 1024
	sum := expr.Var("x0")
	for i := 1; i < k; i++ {
		sum = expr.Add(sum, expr.Var("x"+strconv.Itoa(i)))
	}
	leaf := Atoms(64, NewAtom)
	var p *Poly
	allocs := testing.AllocsPerRun(3, func() { p = FromExpr(sum, 64, leaf) })
	if p.NumTerms() != k {
		t.Fatalf("expansion has %d terms, want %d", p.NumTerms(), k)
	}
	if perTerm := allocs / k; perTerm > 3 {
		t.Errorf("expanding a %d-term sum made %.0f allocations (%.1f per term); want at most 3 per term", k, allocs, perTerm)
	}
}

func TestAppendKeyIdentifiesPolynomial(t *testing.T) {
	same := [][2]string{
		{"x*y + (x&y) - 3", "(y&x) - 3 + y*x"},
		{"(x+1)*(x-1)", "x*x - 1"},
		{"x - x", "0"},
	}
	for _, c := range same {
		if a, b := string(fromSrc(t, c[0], 64).AppendKey(nil)), string(fromSrc(t, c[1], 64).AppendKey(nil)); a != b {
			t.Errorf("AppendKey(%s) = %q, AppendKey(%s) = %q: equal polynomials, different keys", c[0], a, c[1], b)
		}
	}
	diff := [][2]string{
		{"x*y", "2*x*y"},
		{"x*y", "x*y + 1"},
		{"x", "y"},
		{"x*x", "x"},
		{"x&y", "x|y"},
	}
	for _, c := range diff {
		if a, b := string(fromSrc(t, c[0], 64).AppendKey(nil)), string(fromSrc(t, c[1], 64).AppendKey(nil)); a == b {
			t.Errorf("AppendKey(%s) = AppendKey(%s) = %q: distinct polynomials share a key", c[0], c[1], a)
		}
	}
}

func TestScale(t *testing.T) {
	p := fromSrc(t, "x*y - 2*(x&y) + 5", 64)
	p.Scale(^uint64(0))
	if want := fromSrc(t, "-(x*y) + 2*(x&y) - 5", 64); !p.Equal(want) {
		t.Fatalf("Scale(-1) = %v, want %v", p.ToExpr(), want.ToExpr())
	}
	q := fromSrc(t, "3*x + 2*y + 4", 3)
	q.Scale(4)
	if want := fromSrc(t, "4*x", 3); !q.Equal(want) || q.NumTerms() != 1 {
		t.Fatalf("Scale(4) at width 3 = %v (%d terms), want 4*x", q.ToExpr(), q.NumTerms())
	}
}

package truthtable

import (
	"testing"
	"testing/quick"

	"mbasolver/internal/expr"
	"mbasolver/internal/parser"
)

func sig(t *testing.T, src string, vars ...string) []uint64 {
	t.Helper()
	return Compute(parser.MustParse(src), vars, 64).S
}

func TestSignaturePaperExample2(t *testing.T) {
	// §4.1 Example 2: E = 2(x|y) - (~x&y) - (x&~y) has signature
	// (0,1,1,2).
	got := sig(t, "2*(x|y) - (~x&y) - (x&~y)", "x", "y")
	want := []uint64{0, 1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signature = %v, want %v", got, want)
		}
	}
}

func TestSignatureBasisColumns(t *testing.T) {
	// Table 4's base columns, in this package's row order: assignment
	// index bit j carries vars[j], so x (vars[0]) is the LOW bit and
	// the rows run (x,y) = 00, 10, 01, 11. The paper prints the same
	// columns with x as the high bit; the two conventions are
	// isomorphic and this package uses the low-bit one everywhere
	// (Compute, TruthColumn, the Möbius subset indexing).
	cases := []struct {
		src  string
		want []uint64
	}{
		{"x", []uint64{0, 1, 0, 1}},
		{"y", []uint64{0, 0, 1, 1}},
		{"x&y", []uint64{0, 0, 0, 1}},
		{"-1", []uint64{1, 1, 1, 1}},
		{"x|y", []uint64{0, 1, 1, 1}},
		{"x^y", []uint64{0, 1, 1, 0}},
		{"x+y", []uint64{0, 1, 1, 2}},
	}
	for _, c := range cases {
		got := sig(t, c.src, "x", "y")
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("signature(%q) = %v, want %v", c.src, got, c.want)
				break
			}
		}
	}
}

func TestSignatureTheorem1(t *testing.T) {
	// Two equivalent linear MBAs share a signature; inequivalent ones
	// differ.
	a := sig(t, "2*(x|y) - (~x&y) - (x&~y)", "x", "y")
	b := sig(t, "x+y", "x", "y")
	c := sig(t, "x-y", "x", "y")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equivalent expressions with different signatures: %v vs %v", a, b)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("x+y and x-y share a signature")
	}
}

func TestSignatureKeyAndZero(t *testing.T) {
	s1 := Compute(parser.MustParse("x-x"), []string{"x"}, 64)
	if !s1.IsZero() {
		t.Error("x-x signature not zero")
	}
	s2 := Compute(parser.MustParse("x"), []string{"x"}, 64)
	if s1.Equal(s2) {
		t.Error("distinct signatures compare equal")
	}
	if !s1.Equal(Compute(parser.MustParse("y-y"), []string{"y"}, 64)) {
		// Different variable NAME but same order/width/values: Equal
		// compares names too, so this must be false.
		t.Log("signatures over different var names compare unequal (by design)")
	}
}

func TestTruthColumn(t *testing.T) {
	cases := []struct {
		src  string
		want uint64
	}{
		{"x", 0b1010},
		{"y", 0b1100},
		{"x&y", 0b1000},
		{"x|y", 0b1110},
		{"x^y", 0b0110},
		{"~x", 0b0101},
	}
	for _, c := range cases {
		if got := TruthColumn(parser.MustParse(c.src), []string{"x", "y"}); got != c.want {
			t.Errorf("TruthColumn(%q) = %04b, want %04b", c.src, got, c.want)
		}
	}
}

// TestTruthColumnMatchesSignature checks the one-pass truth column
// against the row-by-row signature: for a bitwise-pure expression over
// up to MaxVars variables, signature entry a is bit a of the column.
func TestTruthColumnMatchesSignature(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	f := func(seed uint64, nvars uint8) bool {
		vars := names[:1+int(nvars)%MaxVars]
		var build func(depth int) *expr.Expr
		build = func(depth int) *expr.Expr {
			seed = seed*6364136223846793005 + 1442695040888963407
			pick := seed >> 60
			if depth == 0 || pick < 4 {
				return expr.Var(vars[int(seed>>32)%len(vars)])
			}
			switch pick % 4 {
			case 0:
				return expr.Not(build(depth - 1))
			case 1:
				return expr.And(build(depth-1), build(depth-1))
			case 2:
				return expr.Or(build(depth-1), build(depth-1))
			default:
				return expr.Xor(build(depth-1), build(depth-1))
			}
		}
		e := build(6)
		col := TruthColumn(e, vars)
		for a, v := range Compute(e, vars, 64).S {
			if v != col>>a&1 {
				t.Logf("%v over %v: column %b, signature %v", e, vars, col, Compute(e, vars, 64).S)
				return false
			}
		}
		return col>>(1<<len(vars)) == 0 || len(vars) == MaxVars
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTruthColumnRejectsNonPure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arithmetic expression")
		}
	}()
	TruthColumn(parser.MustParse("x+y"), []string{"x", "y"})
}

func TestMinimalBoolExprAllTwoVarFunctions(t *testing.T) {
	// Every one of the 16 two-variable boolean functions must be
	// synthesized, and the synthesized expression's truth table must
	// match.
	vars := []string{"x", "y"}
	for tt := uint64(0); tt < 16; tt++ {
		e := MinimalBoolExpr(tt, vars)
		if e == nil {
			t.Errorf("no expression for tt=%04b", tt)
			continue
		}
		if got := TruthColumn(e, vars); got != tt {
			t.Errorf("tt=%04b synthesized %q with table %04b", tt, e, got)
		}
	}
}

func TestMinimalBoolExprThreeVars(t *testing.T) {
	vars := []string{"x", "y", "z"}
	missing := 0
	for tt := uint64(0); tt < 256; tt++ {
		e := MinimalBoolExpr(tt, vars)
		if e == nil {
			missing++
			continue
		}
		if got := TruthColumn(e, vars); got != tt {
			t.Errorf("tt=%08b synthesized %q with table %08b", tt, e, got)
		}
	}
	if missing > 0 {
		t.Errorf("%d/256 three-variable functions unsynthesized", missing)
	}
}

func TestMinimalBoolExprIsMinimalForKnownCases(t *testing.T) {
	vars := []string{"x", "y"}
	cases := []struct {
		tt   uint64
		size int
	}{
		{0b1010, 1}, // x
		{0b0110, 3}, // x^y
		{0b1000, 3}, // x&y
		{0b0101, 2}, // ~x
		{0b0111, 4}, // ~(x&y) or ~x|~y
	}
	for _, c := range cases {
		e := MinimalBoolExpr(c.tt, vars)
		if e == nil || e.Size() != c.size {
			t.Errorf("tt=%04b: got %v (size %d), want size %d", c.tt, e, e.Size(), c.size)
		}
	}
}

func TestSignatureMatchesDefinitionProperty(t *testing.T) {
	// Property: for random linear MBAs Σ aᵢeᵢ, the computed signature
	// equals the matrix-vector product M·v of Definition 3.
	f := func(a1, a2 int8) bool {
		e := expr.Add(
			expr.Mul(expr.ConstInt(int64(a1)), parser.MustParse("x|y")),
			expr.Mul(expr.ConstInt(int64(a2)), parser.MustParse("x&~y")))
		s := Compute(e, []string{"x", "y"}, 64)
		colOr := []uint64{0, 1, 1, 1}  // x|y
		colAnd := []uint64{0, 1, 0, 0} // x&~y (x is the low index bit)
		for i := 0; i < 4; i++ {
			want := uint64(int64(a1))*colOr[i] + uint64(int64(a2))*colAnd[i]
			if s.S[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComputeWidthReduction(t *testing.T) {
	// Signatures at width 8 are the width-64 signatures mod 2^8.
	e := parser.MustParse("5*(x&y) - 300*(x|y)")
	s64 := Compute(e, []string{"x", "y"}, 64)
	s8 := Compute(e, []string{"x", "y"}, 8)
	for i := range s8.S {
		if s8.S[i] != s64.S[i]&0xff {
			t.Fatalf("width reduction mismatch at %d: %x vs %x", i, s8.S[i], s64.S[i])
		}
	}
}

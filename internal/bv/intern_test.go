package bv

import (
	"testing"

	"mbasolver/internal/parser"
)

// TestInternDeterministic mirrors expr.Hash's determinism contract at
// the pointer level: interning the same tree twice, and interning an
// independently constructed structurally equal tree, yields the same
// canonical pointer.
func TestInternDeterministic(t *testing.T) {
	in := NewInterner()
	build := func() *Term {
		x, y := NewVar("x", 8), NewVar("y", 8)
		return Binary(Sub,
			Binary(Mul, NewConst(2, 8), Binary(Or, x, y)),
			Binary(Add,
				Binary(And, Unary(Not, x), y),
				Binary(And, x, Unary(Not, y))))
	}
	a, b := in.Intern(build()), in.Intern(build())
	if a != b {
		t.Fatal("structurally equal trees intern to different pointers")
	}
	if in.Intern(a) != a {
		t.Fatal("re-interning a canonical node is not the identity")
	}
	// Builder API and Intern-of-tree agree.
	c := in.Binary(Sub,
		in.Binary(Mul, in.Const(2, 8), in.Binary(Or, in.Var("x", 8), in.Var("y", 8))),
		in.Binary(Add,
			in.Binary(And, in.Unary(Not, in.Var("x", 8)), in.Var("y", 8)),
			in.Binary(And, in.Var("x", 8), in.Unary(Not, in.Var("y", 8)))))
	if c != a {
		t.Fatal("builder API and Intern disagree on the canonical node")
	}
}

// TestInternNoAliasing: every field of a node lives in its own key
// slot, so near-miss pairs that a naive string concatenation could
// alias stay distinct.
func TestInternNoAliasing(t *testing.T) {
	in := NewInterner()
	pairs := [][2]*Term{
		{in.Var("x", 8), in.Var("x", 16)}, // same name, different width
		{in.Const(1, 8), in.Const(1, 16)}, // same value, different width
		{in.Var("1", 8), in.Const(1, 8)},  // name "1" vs value 1
		{in.Var("ab", 8), in.Var("a", 8)}, // prefix names
		{in.Unary(Not, in.Var("x", 8)), in.Unary(Neg, in.Var("x", 8))},
		{in.Binary(Sub, in.Var("x", 8), in.Var("y", 8)),
			in.Binary(Sub, in.Var("y", 8), in.Var("x", 8))}, // operand order matters
		{in.Binary(And, in.Var("a", 8), in.Binary(And, in.Var("b", 8), in.Var("c", 8))),
			in.Binary(And, in.Binary(And, in.Var("a", 8), in.Var("b", 8)), in.Var("c", 8))},
	}
	for i, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("pair %d: %s and %s must not intern to the same node", i, p[0], p[1])
		}
	}
}

// TestInternConstReduction: constants are reduced mod 2^width before
// keying, so 0x1ff and 0xff intern to the same width-8 node.
func TestInternConstReduction(t *testing.T) {
	in := NewInterner()
	if in.Const(0x1ff, 8) != in.Const(0xff, 8) {
		t.Fatal("width-reduced constants must share a node")
	}
}

// TestInternCollisionFree mirrors expr's TestHashCollisionFree: across
// a systematically enumerated pool of small terms, structurally
// distinct terms get distinct pointers and structural repeats collapse.
func TestInternCollisionFree(t *testing.T) {
	in := NewInterner()
	var leaves []*Term
	for _, v := range []string{"x", "y", "z"} {
		leaves = append(leaves, in.Var(v, 8))
	}
	for _, c := range []uint64{0, 1, 2, 255} {
		leaves = append(leaves, in.Const(c, 8))
	}
	ops := []Op{And, Or, Xor, Add, Sub, Mul}
	var depth1 []*Term
	for _, op := range ops {
		for _, x := range leaves {
			for _, y := range leaves {
				depth1 = append(depth1, in.Binary(op, x, y))
			}
		}
	}
	pool := append(append([]*Term{}, leaves...), depth1...)
	for i := 0; i+1 < len(depth1); i += 5 {
		pool = append(pool, in.Binary(Xor, depth1[i], depth1[i+1]))
		pool = append(pool, in.Unary(Not, depth1[i]))
	}

	// Distinct structure (by canonical rewriter key, the existing
	// ground truth for structural equality) implies distinct pointer,
	// and equal structure implies equal pointer.
	rw := NewRewriter(RewriteNone)
	byKey := map[string]*Term{}
	for _, term := range pool {
		k := rw.Key(term)
		if prev, ok := byKey[k]; ok {
			if prev != term {
				t.Fatalf("structural repeat %q interned to two nodes", k)
			}
			continue
		}
		byKey[k] = term
	}
	if len(byKey) < 250 {
		t.Fatalf("collision corpus too small: %d distinct forms", len(byKey))
	}
	stats := in.Stats()
	if stats.Terms != len(byKey) {
		t.Fatalf("interner holds %d terms, want %d distinct forms", stats.Terms, len(byKey))
	}
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
}

// TestInternFromExprEvaluates: the interned translation of an
// expression computes the same function as the plain translation, and
// repeated subterms share pointers (the whole point).
func TestInternFromExprEvaluates(t *testing.T) {
	in := NewInterner()
	e := parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y) - ((x&~y)*(~x&y))")
	plain := FromExpr(e, 8)
	interned := in.FromExpr(e, 8)
	for x := uint64(0); x < 8; x++ {
		for y := uint64(0); y < 8; y++ {
			env := map[string]uint64{"x": x, "y": y}
			if Eval(plain, env) != Eval(interned, env) {
				t.Fatalf("interned term diverges at x=%d y=%d", x, y)
			}
		}
	}
	if Size(interned) >= Size(plain) {
		t.Fatalf("interning did not share repeated subterms: %d >= %d",
			Size(interned), Size(plain))
	}
	// A second translation of the same source is pointer-identical.
	if in.FromExpr(parser.MustParse(e.String()), 8) != interned {
		t.Fatal("re-translating the same expression missed the intern table")
	}
}

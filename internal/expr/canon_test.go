package expr_test

import (
	"os"
	"strings"
	"sync"
	"testing"

	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
)

// checkCanonMatchesRef asserts that the single-pass Canon, CanonKey,
// Key and Hash agree with the test-only quadratic reference on e:
// identical canonical trees, key bytes, node counts and digests, and e
// untouched.
func checkCanonMatchesRef(t *testing.T, e *expr.Expr) {
	t.Helper()
	before := expr.RefKey(e)
	want := expr.RefCanon(e)
	got, key, nodes := expr.CanonKey(e)
	if !expr.Equal(got, want) {
		t.Fatalf("CanonKey tree = %s, reference %s (input %s)", got.Key(), expr.RefKey(want), before)
	}
	if !expr.Equal(expr.Canon(e), want) {
		t.Fatalf("Canon tree differs from the reference (input %s)", before)
	}
	if wantKey := expr.RefKey(want); key != wantKey {
		t.Fatalf("CanonKey key = %q, reference %q", key, wantKey)
	}
	if wantNodes := pathNodes(want); nodes != wantNodes {
		t.Fatalf("CanonKey node count = %d, reference %d", nodes, wantNodes)
	}
	if k := e.Key(); k != before {
		t.Fatalf("Key = %q, reference %q", k, before)
	}
	if got, want := expr.Hash(e), expr.RefHash(e); got != want {
		t.Fatalf("Hash = %s, reference %s (input %s)", got, want, before)
	}
	if after := expr.RefKey(e); after != before {
		t.Fatalf("canonicalization mutated its input: %q -> %q", before, after)
	}
}

// TestCanonMatchesRefOnCorpus: every generated class at both corpus
// widths, obfuscated and ground sides.
func TestCanonMatchesRefOnCorpus(t *testing.T) {
	for _, width := range []uint{8, 64} {
		g := gen.New(gen.Config{Seed: int64(width), Width: width})
		for _, s := range g.Corpus(40) {
			checkCanonMatchesRef(t, s.Obfuscated)
			checkCanonMatchesRef(t, s.Ground)
		}
	}
}

// TestCanonMatchesRefOnChains: left-deep chains up to 1024 leaves
// mixing variables, constants (whose keys sort before any bracket, so
// most commutative nodes swap), every operator, foldable unary
// constants and multiple negations.
func TestCanonMatchesRefOnChains(t *testing.T) {
	for _, leaves := range []int{1, 2, 3, 17, 64, 255, 1024} {
		checkCanonMatchesRef(t, leftDeepChain(leaves))
	}
}

// TestCanonMatchesRefOnParserSeeds: the parser's fuzz seed corpus.
func TestCanonMatchesRefOnParserSeeds(t *testing.T) {
	for _, src := range parserSeeds(t) {
		checkCanonMatchesRef(t, parser.MustParse(src))
	}
}

// FuzzCanon checks the differential property on every expression the
// parser accepts.
func FuzzCanon(f *testing.F) {
	for _, src := range parserSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := parser.Parse(src)
		if err != nil {
			return
		}
		checkCanonMatchesRef(t, e)
	})
}

// TestHashAllocsLinear bounds Hash's allocations by the node count:
// one canonical node at most per input node plus a constant for the
// buffers, so a return to re-serializing subtree keys per node (which
// allocates per node per level) fails here.
func TestHashAllocsLinear(t *testing.T) {
	for name, e := range map[string]*expr.Expr{
		"chain":    leftDeepChain(1024),
		"balanced": balancedTree(1024),
	} {
		nodes := e.Size()
		allocs := testing.AllocsPerRun(20, func() { expr.Hash(e) })
		if bound := float64(nodes + 32); allocs > bound {
			t.Errorf("%s: Hash of %d nodes made %.0f allocations, bound %.0f", name, nodes, allocs, bound)
		}
	}
}

// TestHashConcurrent: Hash and CanonKey share pooled scratch across
// goroutines; concurrent callers must still get their own answers.
func TestHashConcurrent(t *testing.T) {
	es := []*expr.Expr{leftDeepChain(300), balancedTree(256), leftDeepChain(7), parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)")}
	want := make([]expr.Digest, len(es))
	keys := make([]string, len(es))
	for i, e := range es {
		want[i] = expr.RefHash(e)
		keys[i] = expr.RefKey(expr.RefCanon(e))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(es)
				if got := expr.Hash(es[k]); got != want[k] {
					t.Errorf("concurrent Hash of input %d = %s, want %s", k, got, want[k])
					return
				}
				if _, key, _ := expr.CanonKey(es[k]); key != keys[k] {
					t.Errorf("concurrent CanonKey of input %d = %q, want %q", k, key, keys[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// hashSink keeps the benchmarked call from being optimized away.
var hashSink expr.Digest

func BenchmarkHash(b *testing.B) {
	for _, c := range []struct {
		name string
		e    *expr.Expr
	}{
		{"chain1024", leftDeepChain(1024)},
		{"balanced1024", balancedTree(1024)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = expr.Hash(c.e)
			}
		})
	}
}

// leftDeepChain builds a left-deep tree over n leaves: leaf i is a
// variable or a constant, and the operators cycle through every binary
// operator with a double negation every fifth level.
func leftDeepChain(n int) *expr.Expr {
	ops := []expr.Op{expr.OpAdd, expr.OpAnd, expr.OpMul, expr.OpXor, expr.OpSub, expr.OpOr}
	acc := chainLeaf(0)
	for i := 1; i < n; i++ {
		acc = expr.Binary(ops[i%len(ops)], acc, chainLeaf(i))
		if i%5 == 0 {
			acc = expr.Not(expr.Not(acc))
		}
	}
	return acc
}

// chainLeaf returns a variable, a constant, a constant under unary
// operators or a triple negation. The constant case is built raw, as
// the parser and the Not/Neg constructors never produce it, so that
// Canon has a constant to fold.
func chainLeaf(i int) *expr.Expr {
	switch {
	case i%3 == 1:
		return expr.Const(uint64(i) * 0x9e3779b97f4a7c15)
	case i%11 == 0:
		return &expr.Expr{Op: expr.OpNeg, X: &expr.Expr{Op: expr.OpNot, X: expr.Const(uint64(i))}}
	case i%13 == 0:
		v := expr.Var("n")
		if i%2 == 0 {
			return expr.Neg(expr.Neg(expr.Neg(v)))
		}
		return expr.Not(expr.Not(expr.Not(v)))
	}
	return expr.Var("v" + strings.Repeat("x", i%4) + string(rune('a'+i%26)))
}

// balancedTree builds a complete binary tree over n leaves.
func balancedTree(n int) *expr.Expr {
	var build func(lo, hi int) *expr.Expr
	build = func(lo, hi int) *expr.Expr {
		if hi-lo == 1 {
			return chainLeaf(lo)
		}
		mid := (lo + hi) / 2
		ops := []expr.Op{expr.OpAdd, expr.OpAnd, expr.OpXor, expr.OpMul}
		return expr.Binary(ops[lo%len(ops)], build(mid, hi), build(lo, mid))
	}
	return build(0, n)
}

// parserSeeds returns the parser's fuzz seed corpus, one per line.
func parserSeeds(tb testing.TB) []string {
	data, err := os.ReadFile("../parser/testdata/seeds.txt")
	if err != nil {
		tb.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// pathNodes counts e's nodes, a shared subtree once per path.
func pathNodes(e *expr.Expr) int {
	if e == nil {
		return 0
	}
	return 1 + pathNodes(e.X) + pathNodes(e.Y)
}

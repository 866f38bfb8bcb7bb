package bv

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
)

// refTermKey is the straightforward term key kept as a test-only
// reference: it serializes the whole subterm on every call and formats
// leaves with fmt. Rewriter.Key must produce the same bytes.
func refTermKey(t *Term) string {
	var b strings.Builder
	refWriteTermKey(&b, t)
	return b.String()
}

func refWriteTermKey(b *strings.Builder, t *Term) {
	switch t.Op {
	case Const:
		fmt.Fprintf(b, "#%d/%d", t.Val, t.Width)
	case Var:
		fmt.Fprintf(b, "%s/%d", t.Name, t.Width)
	default:
		b.WriteByte('(')
		b.WriteString(t.Op.String())
		for _, a := range t.Args {
			b.WriteByte(' ')
			refWriteTermKey(b, a)
		}
		b.WriteByte(')')
	}
}

// keyInputs returns equivalence queries over the generated corpus of
// every class at widths 8 and 64, long left-deep chains, and the
// parser's fuzz seed corpus.
func keyInputs(t *testing.T) []*Term {
	var out []*Term
	for _, width := range []uint{8, 64} {
		g := gen.New(gen.Config{Seed: int64(width) + 1, Width: width})
		for _, s := range g.Corpus(15) {
			out = append(out, Predicate(Ne, FromExpr(s.Obfuscated, width), FromExpr(s.Ground, width)))
		}
	}
	chain := expr.Var("x0")
	for i := 1; i < 512; i++ {
		leaf := expr.Var(fmt.Sprintf("x%d", i%7))
		if i%3 == 0 {
			leaf = expr.Const(uint64(i))
		}
		chain = expr.Binary([]expr.Op{expr.OpAdd, expr.OpAnd, expr.OpXor, expr.OpSub, expr.OpMul, expr.OpOr}[i%6], chain, leaf)
	}
	out = append(out, FromExpr(chain, 32))
	data, err := os.ReadFile("../parser/testdata/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		out = append(out, FromExpr(parser.MustParse(src), 16))
	}
	return out
}

// TestRewriterKeyMatchesRef: every term of each query and of its
// rewrite at both rewriting levels gets the reference key, whether its
// arguments were keyed before it (post-order) or not (pre-order).
func TestRewriterKeyMatchesRef(t *testing.T) {
	for _, q := range keyInputs(t) {
		for _, level := range []RewriteLevel{RewriteBasic, RewriteFull} {
			r := NewRewriter(level)
			out := r.Rewrite(q)
			for _, root := range []*Term{q, out} {
				checkKeys(t, r, root, true)
				checkKeys(t, NewRewriter(level), root, false)
			}
		}
	}
}

func checkKeys(t *testing.T, r *Rewriter, root *Term, postOrder bool) {
	t.Helper()
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(n *Term) {
		if seen[n] {
			return
		}
		seen[n] = true
		if !postOrder {
			if got, want := r.Key(n), refTermKey(n); got != want {
				t.Fatalf("Key = %q, reference %q", got, want)
			}
		}
		for _, a := range n.Args {
			walk(a)
		}
		if postOrder {
			if got, want := r.Key(n), refTermKey(n); got != want {
				t.Fatalf("Key = %q, reference %q", got, want)
			}
		}
	}
	walk(root)
}

// rewriteSink keeps the benchmarked call from being optimized away.
var rewriteSink *Term

func BenchmarkRewrite(b *testing.B) {
	g := gen.New(gen.Config{Seed: 5, Width: 8})
	var qs []*Term
	for _, s := range g.Corpus(10) {
		qs = append(qs, Predicate(Ne, FromExpr(s.Obfuscated, 8), FromExpr(s.Ground, 8)))
	}
	for _, level := range []RewriteLevel{RewriteBasic, RewriteFull} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					rewriteSink = NewRewriter(level).Rewrite(q)
				}
			}
		})
	}
}

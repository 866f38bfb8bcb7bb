package smt

import (
	"testing"

	"mbasolver/internal/bv"
	"mbasolver/internal/parser"
)

// benchPairs is a small fixed set of linear MBA identities — the
// repeated-query shape incremental contexts target. All solve quickly
// at width 8, so the benchmarks compare per-query overhead and
// encoding/clause reuse rather than raw search time.
func benchPairs(b *testing.B) [][2]*bv.Term {
	b.Helper()
	src := [][2]string{
		{"(x|y)+y-(~x&y)", "x+y"},
		{"(x^y)+2*(x&y)", "x+y"},
		{"(x|y)+(x&y)", "x+y"},
		{"x-(x&y)", "x&~y"},
	}
	pairs := make([][2]*bv.Term, len(src))
	for i, s := range src {
		lhs := parser.MustParse(s[0])
		rhs := parser.MustParse(s[1])
		pairs[i] = [2]*bv.Term{bv.FromExpr(lhs, 8), bv.FromExpr(rhs, 8)}
	}
	return pairs
}

// BenchmarkCheckTermEquivFresh is the pre-incremental architecture:
// every query pays full blasting and a cold CDCL search.
func BenchmarkCheckTermEquivFresh(b *testing.B) {
	pairs := benchPairs(b)
	s := NewZ3Sim()
	budget := Budget{Conflicts: 200_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pairs[i%len(pairs)]
		if res := s.CheckTermEquiv(q[0], q[1], budget); res.Status != Equivalent {
			b.Fatalf("fresh: unexpected status %v", res.Status)
		}
	}
}

// BenchmarkCheckTermEquivIncremental answers the same query mix
// through one warm Context: repeat queries hit the activation-literal
// cache and skip blasting entirely.
func BenchmarkCheckTermEquivIncremental(b *testing.B) {
	pairs := benchPairs(b)
	ctx := NewZ3Sim().NewContext()
	budget := Budget{Conflicts: 200_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pairs[i%len(pairs)]
		if res := ctx.CheckTermEquiv(q[0], q[1], budget); res.Status != Equivalent {
			b.Fatalf("incremental: unexpected status %v", res.Status)
		}
	}
}

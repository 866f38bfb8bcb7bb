package poly_test

import (
	"testing"

	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/poly"
)

// BenchmarkFromExpr expands both sides of a fixed gen corpus of every
// class at width 64 with canonical atoms.
func BenchmarkFromExpr(b *testing.B) {
	var exprs []*expr.Expr
	for _, smp := range gen.New(gen.Config{Seed: 20}).Corpus(40) {
		exprs = append(exprs, smp.Obfuscated, smp.Ground)
	}
	leaf := poly.Atoms(64, poly.CanonAtom)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			fromExprSink = poly.FromExpr(e, 64, leaf)
		}
	}
}

// fromExprSink keeps BenchmarkFromExpr's results live.
var fromExprSink *poly.Poly

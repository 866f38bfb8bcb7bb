package portfolio

import (
	"testing"

	"mbasolver/internal/bv"
	"mbasolver/internal/leakcheck"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// TestEmptyPortfolioCarriesReason pins the degradation contract on
// every empty-engine path: a portfolio with nothing to race still
// returns a verdict, and that verdict must say why it is Unknown
// (ReasonResource — no engine was available), not a bare Timeout the
// caller cannot distinguish from a genuine budget exhaustion.
func TestEmptyPortfolioCarriesReason(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ta := bv.FromExpr(parser.MustParse("x"), 8)
	tb := bv.FromExpr(parser.MustParse("x"), 8)
	budget := smt.Budget{Conflicts: 10}

	for _, opts := range []Options{
		{},
		{Incremental: true},
		{Incremental: true, Share: true, Cubes: &smt.CubeOptions{}, Breakers: &BreakerOptions{}},
	} {
		set := New(nil, opts)
		if r := set.CheckTermEquiv(ta, tb, budget); r.Status != smt.Timeout || r.Reason != smt.ReasonResource {
			t.Errorf("%+v: CheckTermEquiv(no engines) = %v/%q, want %v/%q", opts, r.Status, r.Reason, smt.Timeout, smt.ReasonResource)
		}
		if r := set.SolveAssertions(nil, budget); r.Status != smt.SatUnknown || r.Reason != smt.ReasonResource {
			t.Errorf("%+v: SolveAssertions(no engines) = %v/%q, want %v/%q", opts, r.Status, r.Reason, smt.SatUnknown, smt.ReasonResource)
		}
	}
}

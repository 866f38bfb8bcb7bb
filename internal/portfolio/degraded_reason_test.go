package portfolio

import (
	"testing"

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
	x := parser.MustParse("x")
	budget := smt.Budget{Conflicts: 10}

	for _, opts := range []Options{
		{},
		{Incremental: true},
		{Incremental: true, Breakers: &BreakerOptions{}},
	} {
		set := New(nil, opts)
		if r := set.CheckEquiv(x, x, 8, budget); r.Status != smt.Timeout || r.Reason != smt.ReasonResource {
			t.Errorf("%+v: CheckEquiv(no engines) = %v/%q, want %v/%q", opts, r.Status, r.Reason, smt.Timeout, smt.ReasonResource)
		}
		if r := set.SolveAssertions(nil, budget); r.Status != smt.SatUnknown || r.Reason != smt.ReasonResource {
			t.Errorf("%+v: SolveAssertions(no engines) = %v/%q, want %v/%q", opts, r.Status, r.Reason, smt.SatUnknown, smt.ReasonResource)
		}
	}
}

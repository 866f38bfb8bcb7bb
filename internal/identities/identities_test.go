package identities

import (
	"math/rand"
	"testing"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// TestCatalogIdentitiesHoldRandomly instantiates every catalog entry
// with random compound subexpressions and checks both sides agree on
// random inputs at several widths.
func TestCatalogIdentitiesHoldRandomly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	subs := []string{"x", "y", "x*y", "x+3", "~x", "x-y", "x&y", "x|z"}
	for _, ident := range Catalog() {
		for trial := 0; trial < 10; trial++ {
			a := parser.MustParse(subs[rng.Intn(len(subs))])
			b := parser.MustParse(subs[rng.Intn(len(subs))])
			lhs := Instantiate(ident.Simple, a, b)
			rhs := Instantiate(ident.MBA, a, b)
			for _, width := range []uint{8, 32, 64} {
				if eq, env := eval.ProbablyEqual(rng, lhs, rhs, width, 60); !eq {
					t.Fatalf("%s: not an identity at width %d for A=%v B=%v (env %v)",
						ident.Name, width, a, b, env)
				}
			}
		}
	}
}

// TestCatalogIdentitiesProven proves every entry with the SMT solver
// at width 8 over fresh variables (a complete check, unlike random
// testing).
func TestCatalogIdentitiesProven(t *testing.T) {
	if testing.Short() {
		t.Skip("solver proofs are slow")
	}
	sv := smt.NewBoolectorSim()
	a, b := expr.Var("a"), expr.Var("b")
	// The costliest identity takes 931 conflicts: a 3.2× margin.
	budget := smt.Budget{Conflicts: 3000}
	for _, ident := range Catalog() {
		lhs := Instantiate(ident.Simple, a, b)
		rhs := Instantiate(ident.MBA, a, b)
		res := sv.CheckEquiv(lhs, rhs, 8, budget)
		if res.Status != smt.Equivalent {
			t.Errorf("%s: solver verdict %v", ident.Name, res.Status)
		}
	}
}

func TestByOpIndexing(t *testing.T) {
	byOp := ByOp()
	for _, op := range []expr.Op{expr.OpAdd, expr.OpSub, expr.OpXor, expr.OpOr, expr.OpAnd} {
		if len(byOp[op]) == 0 {
			t.Errorf("no identities indexed for %v", op)
		}
	}
	total := 0
	for _, ids := range byOp {
		total += len(ids)
	}
	if total != len(Catalog()) {
		t.Errorf("index covers %d of %d entries", total, len(Catalog()))
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, ident := range Catalog() {
		if seen[ident.Name] {
			t.Errorf("duplicate identity name %q", ident.Name)
		}
		seen[ident.Name] = true
	}
}

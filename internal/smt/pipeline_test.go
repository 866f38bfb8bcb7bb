package smt

import (
	"sync/atomic"
	"testing"

	"mbasolver/internal/bv"
	"mbasolver/internal/parser"
	"mbasolver/internal/sat"
)

// pipelineExits drives every exit of the word-level pipeline once.
// Each case names the personality that reaches the exit and the
// verdict the exit produces.
var pipelineExits = []struct {
	name   string
	solver func() *Solver
	// rewrite, when set, overrides the rewriter the pipeline gets. Only
	// a rewriter stronger than the personality's own level can fold the
	// residual disequality to false: with matching levels, rewritten
	// sides equal enough to fold are already pointer-equal.
	rewrite *bv.RewriteLevel
	a, b    string
	budget  func() Budget

	status              Status
	reason              Reason
	rewritten, screened bool
	// ContextStats deltas after asking one Context the query twice
	// (cold, then re-asked).
	queries, actHits, recycles int64
}{
	{name: "screen refutation", solver: NewZ3Sim, a: "x+1", b: "x", budget: budgetOf(Budget{}),
		status: NotEquivalent, screened: true, queries: 2},
	{name: "hash-cons unification", solver: NewBoolectorSim, a: "x&y", b: "y&x", budget: budgetOf(Budget{}),
		status: Equivalent, rewritten: true, queries: 2},
	{name: "arithEqual", solver: NewZ3Sim, a: "(x&y)*(x+1)", b: "(x&y)*x+(x&y)", budget: budgetOf(Budget{}),
		status: Equivalent, rewritten: true, queries: 2},
	{name: "fold to Equivalent", solver: noRewriteSim, rewrite: levelOf(bv.RewriteFull), a: "x&y", b: "y&x",
		budget: budgetOf(Budget{NoScreen: true}), status: Equivalent, rewritten: true, queries: 2},
	{name: "fold to NotEquivalent", solver: NewBoolectorSim, a: "x-x+3", b: "y^y^4",
		budget: budgetOf(Budget{NoScreen: true}), status: NotEquivalent, rewritten: true, queries: 2},
	{name: "SAT Unsat", solver: NewZ3Sim, a: "(x|y)+(x&y)", b: "x+y", budget: budgetOf(Budget{}),
		status: Equivalent, queries: 2, actHits: 1},
	{name: "SAT Sat, eliminated variable pinned", solver: NewBoolectorSim, a: "x*y+(z^z)", b: "x|y",
		budget: budgetOf(Budget{NoScreen: true}), status: NotEquivalent, queries: 2, actHits: 1},
	{name: "pre-phase stop gate", solver: NewZ3Sim, a: "(x|y)+(x&y)", b: "x+y", budget: func() Budget {
		stop := new(atomic.Bool)
		stop.Store(true)
		return Budget{Stop: stop}
	}, status: Unknown, reason: ReasonBudget},
	{name: "MaxVars blast interrupt", solver: NewZ3Sim, a: "(x|y)+(x&y)", b: "x+y",
		budget: budgetOf(Budget{NoScreen: true, MaxVars: 5}), status: Unknown, reason: ReasonResource, recycles: 2},
	{name: "1-conflict Unknown", solver: NewZ3Sim, a: "x*y", b: "(x&~y)*(~x&y)+(x&y)*(x|y)",
		budget: budgetOf(Budget{NoScreen: true, Conflicts: 1}), status: Unknown, reason: ReasonBudget, queries: 2, actHits: 1},
}

func budgetOf(b Budget) func() Budget { return func() Budget { return b } }

func levelOf(l bv.RewriteLevel) *bv.RewriteLevel { return &l }

func noRewriteSim() *Solver { return NewCustom("none", bv.RewriteNone, sat.DefaultOptions()) }

// TestBackendParity runs every pipeline exit through the fresh back
// end and a warm Context (cold, then re-asked), and checks that they
// agree on the exit's verdict, reason and flags, that every witness
// replays, and that the Context counts the query the way it always
// has: Queries for every answered query, ActHits for a re-asked
// residual, Recycles for an interrupted encoding.
func TestBackendParity(t *testing.T) {
	const width = 8
	for _, c := range pipelineExits {
		t.Run(c.name, func(t *testing.T) {
			s := c.solver()
			ta := bv.FromExpr(parser.MustParse(c.a), width)
			tb := bv.FromExpr(parser.MustParse(c.b), width)
			var rw func() *bv.Rewriter
			if c.rewrite != nil {
				rw = func() *bv.Rewriter { return bv.NewRewriter(*c.rewrite) }
			}
			pipeline := func(be backend) Result {
				if rw == nil {
					return s.CheckTermEquiv(ta, tb, c.budget())
				}
				res, _ := s.checkTerms(s.newQuery(c.budget()), ta, tb, nil, rw(), be)
				return res
			}
			ctx := s.NewContext()
			if rw != nil {
				ctx.rw = rw()
			}
			before := ctx.Stats()
			runs := []struct {
				backEnd string
				res     Result
			}{
				{"fresh", pipeline(fresh{})},
				{"warm cold", ctx.CheckTermEquiv(ta, tb, c.budget())},
				{"warm re-asked", ctx.CheckTermEquiv(ta, tb, c.budget())},
			}
			for _, r := range runs {
				got := r.res
				if got.Status != c.status || got.Reason != c.reason || got.Rewritten != c.rewritten || got.Screened != c.screened {
					t.Errorf("%s: status %v reason %v rewritten %v screened %v; want %v %v %v %v", r.backEnd,
						got.Status, got.Reason, got.Rewritten, got.Screened, c.status, c.reason, c.rewritten, c.screened)
				}
				if got.Status != NotEquivalent {
					continue
				}
				if got.Witness == nil {
					t.Errorf("%s: NotEquivalent without a witness", r.backEnd)
				} else if bv.Eval(ta, got.Witness) == bv.Eval(tb, got.Witness) {
					t.Errorf("%s: witness %v does not distinguish the sides", r.backEnd, got.Witness)
				}
				for name := range termVars(ta, tb) {
					if _, ok := got.Witness[name]; !ok {
						t.Errorf("%s: witness %v misses variable %s", r.backEnd, got.Witness, name)
					}
				}
			}
			if c.name == "SAT Sat, eliminated variable pinned" {
				for _, r := range runs {
					if z, ok := r.res.Witness["z"]; !ok || z != 0 {
						t.Errorf("%s: eliminated z = %d (present %v), want pinned to 0", r.backEnd, z, ok)
					}
				}
			}
			after := ctx.Stats()
			if q, a, rc := after.Queries-before.Queries, after.ActHits-before.ActHits, after.Recycles-before.Recycles; q != c.queries || a != c.actHits || rc != c.recycles {
				t.Errorf("ContextStats deltas: Queries %d ActHits %d Recycles %d; want %d %d %d",
					q, a, rc, c.queries, c.actHits, c.recycles)
			}
		})
	}
}

package smt

import (
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/core"
)

// SatStatus is the outcome of a satisfiability query (as opposed to
// the equivalence-oriented Status).
type SatStatus int8

const (
	// SatUnknown means the budget ran out.
	SatUnknown SatStatus = iota
	// Satisfiable with a model.
	Satisfiable
	// Unsatisfiable.
	Unsatisfiable
)

func (s SatStatus) String() string {
	switch s {
	case Satisfiable:
		return "sat"
	case Unsatisfiable:
		return "unsat"
	}
	return "unknown"
}

// SatResult reports a satisfiability query.
type SatResult struct {
	Status       SatStatus
	Reason       Reason            // why Status is SatUnknown (ReasonNone otherwise)
	Model        map[string]uint64 // variable values when Satisfiable
	Elapsed      time.Duration
	Conflicts    int64
	Propagations int64
}

// SolveAssertions decides the conjunction of width-1 terms (the
// SMT-LIB (assert ...) view of a problem) under this personality's
// preprocessing and search configuration. Like CheckTermEquiv it is a
// solver boundary: panics below it degrade to SatUnknown with
// ReasonPanic and are recorded, never propagated.
func (s *Solver) SolveAssertions(assertions []*bv.Term, budget Budget) (res SatResult) {
	q := s.newQuery(budget)
	defer contain("smt.SolveAssertions", q.start, nil, &res)
	return s.solveTerms(q, assertions)
}

// SimplifyPredicate runs MBA-Solver over the two sides of an asserted
// equality or disequality, returning an equivalent predicate with the
// sides simplified. Terms outside that shape are returned unchanged —
// the preprocessing is sound exactly because it only substitutes
// provably equal subterms (paper Theorem 1).
func SimplifyPredicate(t *bv.Term) *bv.Term {
	if t.Op != bv.Eq && t.Op != bv.Ne {
		return t
	}
	la, oka := bv.ToExpr(t.Args[0])
	lb, okb := bv.ToExpr(t.Args[1])
	if !oka || !okb {
		return t
	}
	width := t.Args[0].Width
	s := core.New(core.Options{Width: width})
	sa := bv.FromExpr(s.Simplify(la), width)
	sb := bv.FromExpr(s.Simplify(lb), width)
	return bv.Predicate(t.Op, sa, sb)
}

package smt

import (
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/core"
	"mbasolver/internal/fault"
	"mbasolver/internal/sat"
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
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			fault.RecordPanic("smt.SolveAssertions", r)
			res = SatResult{Status: SatUnknown, Reason: ReasonPanic, Elapsed: time.Since(start)}
		}
	}()
	return s.solveAssertions(start, assertions, budget)
}

func (s *Solver) solveAssertions(start time.Time, assertions []*bv.Term, budget Budget) SatResult {
	var deadline time.Time
	if budget.Timeout > 0 {
		deadline = start.Add(budget.Timeout)
	}
	// Consult the budget before the rewrite loop: per-assertion
	// rewriting is the heavy phase on large inputs, and an exhausted
	// budget must not buy any of it.
	if budget.stopped() || (!deadline.IsZero() && time.Now().After(deadline)) {
		return SatResult{Status: SatUnknown, Reason: ReasonBudget, Elapsed: time.Since(start)}
	}
	if siteRewrite.Fire() {
		fault.PanicAt("smt.rewrite")
	}
	rw := bv.NewRewriter(s.level)

	vars := map[string]uint{}
	rewritten := make([]*bv.Term, 0, len(assertions))
	for _, a := range assertions {
		for name, width := range bv.Vars(a) {
			vars[name] = width
		}
		t := a
		if s.level != bv.RewriteNone {
			t = rw.Rewrite(a)
		}
		if t.Op == bv.Const {
			if t.Val == 0 {
				return SatResult{Status: Unsatisfiable, Elapsed: time.Since(start)}
			}
			continue // trivially true assertion
		}
		rewritten = append(rewritten, t)
	}
	if len(rewritten) == 0 {
		// All assertions rewrote to true: any assignment works.
		model := map[string]uint64{}
		for name := range vars {
			model[name] = 0
		}
		return SatResult{Status: Satisfiable, Model: model, Elapsed: time.Since(start)}
	}

	if budget.stopped() || (!deadline.IsZero() && time.Now().After(deadline)) {
		return SatResult{Status: SatUnknown, Reason: ReasonBudget, Elapsed: time.Since(start)}
	}
	bl := acquireBlaster(s.satOpts)
	if budget.Stop != nil {
		bl.SetStop(budget.Stop)
	}
	if !deadline.IsZero() {
		bl.SetDeadline(deadline)
	}
	bl.SetMaxVars(budget.MaxVars)
	for _, t := range rewritten {
		out := bl.Blast(t)
		if out == nil {
			// Cancelled, out of time, or over the circuit cap mid-encoding.
			res := SatResult{Status: SatUnknown, Reason: bl.StopReason(), Elapsed: time.Since(start)}
			releaseBlaster(bl)
			return res
		}
		bl.AssertTrue(out[0])
	}
	sb := sat.Budget{Conflicts: s.scaledConflicts(budget.Conflicts), Stop: budget.Stop, Deadline: deadline, MaxLits: budget.MaxLits}
	verdict := bl.Solve(sb)
	res := SatResult{
		Elapsed:      time.Since(start),
		Conflicts:    bl.S.Stats().Conflicts,
		Propagations: bl.S.Stats().Propagations,
	}
	switch verdict {
	case sat.Sat:
		res.Status = Satisfiable
		res.Model = map[string]uint64{}
		for name := range vars {
			if v, ok := bl.Model(name); ok {
				res.Model[name] = v
			} else {
				res.Model[name] = 0 // unconstrained by the circuit
			}
		}
	case sat.Unsat:
		res.Status = Unsatisfiable
	default:
		res.Status = SatUnknown
		res.Reason = bl.UnknownReason()
	}
	releaseBlaster(bl)
	return res
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

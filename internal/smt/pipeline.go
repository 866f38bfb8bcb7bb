package smt

import (
	"time"

	"mbasolver/internal/bitblast"
	"mbasolver/internal/bv"
	"mbasolver/internal/fault"
	"mbasolver/internal/sat"
)

// Every query, whichever entry point it came through, runs the same
// word-level phase here and hands what is left to a back end:
//
//	budget gate → smt.rewrite fault site → screen → rewrite →
//	hash-cons check → arithEqual → budget gate → residual Ne fold
//	(findWitness) → backend.decide → SAT-outcome mapping
//
// A warm Context differs from a fresh query only in the interner and
// rewriter it passes in and in its back end.

// query is one query in flight: its budget and clock, and, for an
// equivalence query, the input sides (hash-consed when an interner is
// in play) that witnesses must cover and the residual disequality the
// back end decides.
type query struct {
	s        *Solver
	budget   Budget
	start    time.Time
	deadline time.Time
	a, b     *bv.Term
	residual *bv.Term
}

func (s *Solver) newQuery(budget Budget) query {
	q := query{s: s, budget: budget, start: time.Now()}
	if budget.Timeout > 0 {
		q.deadline = q.start.Add(budget.Timeout)
	}
	return q
}

// expired reports whether the stop flag is raised or the deadline has
// passed.
func (q *query) expired() bool {
	return q.budget.stopped() || (!q.deadline.IsZero() && time.Now().After(q.deadline))
}

// unknown is an Unknown verdict with the given reason, stamped now.
func (q *query) unknown(reason Reason) Result {
	return Result{Status: Unknown, Reason: reason, Elapsed: time.Since(q.start)}
}

// arm points a Blaster at the query's limits and stop flag.
func (q *query) arm(bl *bitblast.Blaster) {
	bl.SetStop(q.budget.Stop)
	bl.SetDeadline(q.deadline)
	bl.SetMaxVars(q.budget.MaxVars)
}

// satBudget is the query's SAT search budget, its conflicts scaled by
// the personality's speed.
func (q *query) satBudget() sat.Budget {
	return sat.Budget{Conflicts: q.s.scaledConflicts(q.budget.Conflicts), Stop: q.budget.Stop, Deadline: q.deadline, MaxLits: q.budget.MaxLits}
}

// backend is the SAT phase behind the word-level pipeline: fresh (a
// pooled Blaster per query) or a Context's warm circuits.
type backend interface {
	// enter runs once the first budget gate has passed, before any
	// word-level work.
	enter()
	// decide searches q.residual and maps the outcome to a verdict.
	// ok is false when no search ran because encoding was interrupted.
	decide(q query) (res Result, ok bool)
	// solveAll searches the conjunction of the rewritten assertions ts,
	// whose variables (before rewriting) are vars.
	solveAll(q query, ts []*bv.Term, vars map[string]uint) (res SatResult, ok bool)
}

// checkTerms runs the word-level phase of an equivalence query and
// hands the residual disequality to be. in hash-conses the inputs and
// the residual (nil for a fresh query); rw is the rewriter (nil makes a
// new one once the screen has passed). answered is false when the query
// stopped at a budget gate or the back end never searched.
func (s *Solver) checkTerms(q query, ta, tb *bv.Term, in *bv.Interner, rw *bv.Rewriter, be backend) (res Result, answered bool) {
	// Consult the budget before the word-level phase, not only after:
	// interning, rewriting and polynomial expansion can themselves be
	// the expensive part (termPoly is exponential on adversarial Mul
	// nests), and a query whose budget is already exhausted must not
	// buy any of it.
	if q.expired() {
		return q.unknown(ReasonBudget), false
	}
	be.enter()
	if siteRewrite.Fire() {
		fault.PanicAt("smt.rewrite")
	}
	if in != nil {
		// Hash-cons the inputs so repeated structure — across queries,
		// not just within this one — collapses to shared pointers before
		// any pointer-keyed cache sees it.
		ta, tb = in.Intern(ta), in.Intern(tb)
	}
	q.a, q.b = ta, tb

	// Pre-solve equivalence screen: evaluate corner + random vector
	// blocks on the bitsliced engine before buying any rewriting or
	// SAT work. Most non-identities die here with a verified witness;
	// the screen is refute-only, so it can never flip a verdict, and it
	// leaves a Context's learned state untouched.
	if !q.budget.NoScreen {
		if w, ok := screenEquiv(ta, tb, q.budget, q.deadline); ok {
			return Result{Status: NotEquivalent, Witness: w, Screened: true, Elapsed: time.Since(q.start)}, true
		}
	}

	if rw == nil {
		rw = bv.NewRewriter(s.level)
	}
	if s.level != bv.RewriteNone {
		ta, tb = rw.Rewrite(ta), rw.Rewrite(tb)
		// Hash-consing may already have unified the two sides; failing
		// that, word-level arithmetic normalization (every real
		// solver's preprocessing does this) expands both sides as
		// polynomials over bitwise atoms and compares them.
		if ta == tb || arithEqual(ta, tb, rw, q.a.Width) {
			return Result{Status: Equivalent, Rewritten: true, Elapsed: time.Since(q.start)}, true
		}
	}
	if q.expired() {
		return q.unknown(ReasonBudget), false
	}

	// Built through the interner, a repeated query hits the rewriter's
	// pointer-keyed memo and yields the exact residual pointer earlier
	// repetitions produced, which keys a Context's activation literals.
	var ne *bv.Term
	if in != nil {
		ne = in.Predicate(bv.Ne, ta, tb)
	} else {
		ne = bv.Predicate(bv.Ne, ta, tb)
	}
	q.residual = rw.Rewrite(ne)

	// The rewriter may still decide the residual query outright.
	if q.residual.Op == bv.Const {
		res = Result{Status: Equivalent, Rewritten: true}
		if q.residual.Val != 0 {
			res.Status = NotEquivalent
			// The fold proves the sides differ but carries no model;
			// probe the original terms for a concrete distinguishing
			// input so callers can always replay the counterexample. A
			// nil witness (budget expired mid-probe, or every probe
			// failed) is reported as "no witness found" rather than an
			// all-zeros map.
			if w, ok := findWitness(q.a, q.b, q.budget, q.deadline); ok {
				res.Witness = w
			}
		}
		res.Elapsed = time.Since(q.start)
		return res, true
	}
	return be.decide(q)
}

// verdict fills res from a SAT outcome on q.residual. On Sat the
// witness is bl's model of the residual's variables; variables the
// rewriter eliminated are unconstrained by the circuit and pinned to
// zero, so the witness covers every variable of the original query and
// replays cleanly.
func (q *query) verdict(res *Result, v sat.Status, bl *bitblast.Blaster) {
	switch v {
	case sat.Unsat:
		res.Status = Equivalent
	case sat.Sat:
		res.Status = NotEquivalent
		res.Witness = model(bv.Vars(q.residual), bl)
		for name := range termVars(q.a, q.b) {
			if _, ok := res.Witness[name]; !ok {
				res.Witness[name] = 0
			}
		}
	default:
		res.Status = Unknown
		res.Reason = bl.UnknownReason()
	}
}

// solveTerms runs the word-level phase of a satisfiability query over
// width-1 assertions and hands the rewritten conjunction to be; in, rw
// and answered are as for checkTerms.
func (s *Solver) solveTerms(q query, assertions []*bv.Term, in *bv.Interner, rw *bv.Rewriter, be backend) (res SatResult, answered bool) {
	// Per-assertion rewriting is the heavy phase on large inputs; an
	// exhausted budget must not buy any of it.
	if q.expired() {
		return SatResult{Status: SatUnknown, Reason: ReasonBudget, Elapsed: time.Since(q.start)}, false
	}
	be.enter()
	if siteRewrite.Fire() {
		fault.PanicAt("smt.rewrite")
	}
	if rw == nil {
		rw = bv.NewRewriter(s.level)
	}
	vars := map[string]uint{}
	rewritten := make([]*bv.Term, 0, len(assertions))
	for _, a := range assertions {
		if in != nil {
			a = in.Intern(a)
		}
		for name, width := range bv.Vars(a) {
			vars[name] = width
		}
		t := a
		if s.level != bv.RewriteNone {
			t = rw.Rewrite(a)
		}
		if t.Op == bv.Const {
			if t.Val == 0 {
				return SatResult{Status: Unsatisfiable, Elapsed: time.Since(q.start)}, true
			}
			continue // trivially true assertion
		}
		rewritten = append(rewritten, t)
	}
	if len(rewritten) == 0 {
		// All assertions rewrote to true: any assignment works.
		return SatResult{Status: Satisfiable, Model: model(vars, nil), Elapsed: time.Since(q.start)}, true
	}
	if q.expired() {
		return SatResult{Status: SatUnknown, Reason: ReasonBudget, Elapsed: time.Since(q.start)}, false
	}
	return be.solveAll(q, rewritten, vars)
}

// satVerdict fills res from a SAT outcome on a conjunction over vars.
func satVerdict(res *SatResult, v sat.Status, bl *bitblast.Blaster, vars map[string]uint) {
	switch v {
	case sat.Sat:
		res.Status = Satisfiable
		res.Model = model(vars, bl)
	case sat.Unsat:
		res.Status = Unsatisfiable
	default:
		res.Status = SatUnknown
		res.Reason = bl.UnknownReason()
	}
}

// model assigns every variable of vars its value in bl's model, or 0
// where bl is nil or leaves the variable unconstrained.
func model(vars map[string]uint, bl *bitblast.Blaster) map[string]uint64 {
	m := map[string]uint64{}
	for name := range vars {
		var v uint64
		if bl != nil {
			v, _ = bl.Model(name)
		}
		m[name] = v
	}
	return m
}

// contain is the solver boundary every public query method defers: a
// panic below it — a genuine bug or an injected fault — becomes an
// Unknown with ReasonPanic in *res (a *Result or *SatResult) instead of
// crashing the caller, and is recorded under label through
// fault.RecordPanic so containment stays observable. A non-nil
// poisoned flag is raised too: the panic may have left a Context's
// caches half-updated, and the next query must rebuild rather than
// trust them.
func contain(label string, start time.Time, poisoned *bool, res any) {
	r := recover()
	if r == nil {
		return
	}
	if poisoned != nil {
		*poisoned = true
	}
	fault.RecordPanic(label, r)
	switch p := res.(type) {
	case *Result:
		*p = Result{Status: Unknown, Reason: ReasonPanic, Elapsed: time.Since(start)}
	case *SatResult:
		*p = SatResult{Status: SatUnknown, Reason: ReasonPanic, Elapsed: time.Since(start)}
	}
}

// fresh is the stateless back end: each query gets an empty pooled
// Blaster and asserts its residual outright.
type fresh struct{}

func (fresh) enter() {}

// decide blasts q.residual into a pooled Blaster, asserts it and
// searches it. A query that panics never releases its Blaster, so a
// Blaster left half-updated is dropped, not reused.
func (fresh) decide(q query) (Result, bool) {
	bl := acquireBlaster(q.s.satOpts)
	q.arm(bl)
	out := bl.Blast(q.residual)
	if out == nil {
		// Cancelled, out of time, or over the circuit cap mid-encoding.
		res := q.unknown(bl.StopReason())
		releaseBlaster(bl)
		return res, false
	}
	bl.AssertTrue(out[0])
	v := bl.Solve(q.satBudget())
	st := bl.S.Stats()
	res := Result{Elapsed: time.Since(q.start), Conflicts: st.Conflicts, Propagations: st.Propagations}
	q.verdict(&res, v, bl)
	releaseBlaster(bl)
	return res, true
}

func (fresh) solveAll(q query, ts []*bv.Term, vars map[string]uint) (SatResult, bool) {
	bl := acquireBlaster(q.s.satOpts)
	q.arm(bl)
	for _, t := range ts {
		out := bl.Blast(t)
		if out == nil {
			res := SatResult{Status: SatUnknown, Reason: bl.StopReason(), Elapsed: time.Since(q.start)}
			releaseBlaster(bl)
			return res, false
		}
		bl.AssertTrue(out[0])
	}
	v := bl.Solve(q.satBudget())
	st := bl.S.Stats()
	res := SatResult{Elapsed: time.Since(q.start), Conflicts: st.Conflicts, Propagations: st.Propagations}
	satVerdict(&res, v, bl, vars)
	releaseBlaster(bl)
	return res, true
}

// Package portfolio races several SMT solver personalities on the same
// query and returns the first definitive verdict, cancelling the
// losers. This is the shape real MBA verification pipelines use under
// per-query wall-clock budgets (the paper's experiments run Z3, STP
// and Boolector side by side and report a virtual best solver): engines
// have complementary strengths, so the portfolio's solved set is the
// union of the individual solved sets at roughly the cost of the
// fastest engine per query.
//
// Cancellation is cooperative and cheap: each engine gets a private
// atomic stop flag threaded through smt.Budget into the bit-blaster
// and the CDCL search loop, which observe it within milliseconds. A
// caller-supplied smt.Budget.Stop cancels the whole portfolio the same
// way.
package portfolio

import (
	"sync/atomic"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/expr"
	"mbasolver/internal/smt"
)

// Name is the conventional solver-column name for portfolio results in
// experiment tables, mirroring the paper's virtual-best-solver rows.
const Name = "portfolio"

// Engine reports one personality's run inside a portfolio query.
type Engine struct {
	Solver       string        // personality name
	Verdict      string        // that engine's own outcome
	Reason       smt.Reason    // why the engine's own verdict was Unknown
	Elapsed      time.Duration // that engine's own wall clock
	Conflicts    int64
	Propagations int64
	Rewritten    bool // verdict reached by word-level rewriting alone
	Cancelled    bool // stopped without a verdict because the race was over
	Skipped      bool // not run: the personality's circuit breaker was open
	Won          bool // first definitive verdict
}

// Result is a portfolio equivalence verdict. The embedded smt.Result
// is the winning engine's (with Elapsed replaced by the portfolio's
// total wall clock); Engines holds per-engine statistics for
// observability, and Winner names the engine that produced the
// verdict ("" when every engine timed out).
type Result struct {
	smt.Result
	Winner  string
	Engines []Engine
}

// SatResult is the portfolio analogue of smt.SatResult for
// satisfiability queries over asserted terms.
type SatResult struct {
	smt.SatResult
	Winner  string
	Engines []Engine
}

// Options configures a Set. The zero value is the plain stateless race.
type Options struct {
	// Incremental gives each personality one warm smt.Context, raced on
	// every equivalence query. Across a corpus the engines keep their
	// interned terms, encoded circuits, learned clauses and branching
	// heuristics, so the set gets faster on structurally related
	// queries; verdicts stay those of the underlying personalities.
	// When false every query runs on the stateless solvers.
	Incremental bool
	// Breakers, when non-nil, guards each personality with a circuit
	// breaker: an engine that keeps panicking or blowing resource caps
	// is skipped until its cooldown admits a probe.
	Breakers *BreakerOptions
}

// engine answers one personality's equivalence queries: a stateless
// *smt.Solver or a warm *smt.Context.
type engine interface {
	CheckEquiv(a, b *expr.Expr, width uint, budget smt.Budget) smt.Result
}

// Set is one portfolio line-up, raced on every query.
//
// A Set is single-caller: one query at a time (the engines race
// internally, but each warm context is only ever touched by the
// goroutine racing it). Use one set per worker; its Solo views count
// as the same caller.
type Set struct {
	solvers  []*smt.Solver
	engines  []engine   // index-aligned with solvers
	breakers []*Breaker // nil without Options.Breakers; index-aligned with solvers
}

// New builds a Set racing the given personalities.
func New(solvers []*smt.Solver, opts Options) *Set {
	s := &Set{solvers: solvers, engines: make([]engine, len(solvers))}
	for i, sv := range solvers {
		s.engines[i] = sv
		if opts.Incremental {
			s.engines[i] = sv.NewContext()
		}
	}
	if opts.Breakers != nil {
		s.breakers = make([]*Breaker, len(solvers))
		for i, sv := range solvers {
			s.breakers[i] = NewBreaker(sv.Name(), *opts.Breakers)
		}
	}
	return s
}

// Solo returns a one-engine view of the named personality, or nil when
// the set has none by that name. The view shares the set's engine (its
// warm context, when incremental) and breaker, so a worker that races
// its set and solves on one personality keeps one warm state and one
// health record per personality. The view is part of the set: query it
// only from the set's caller, never while the set is racing.
func (s *Set) Solo(name string) *Set {
	for i, sv := range s.solvers {
		if sv.Name() != name {
			continue
		}
		v := &Set{solvers: s.solvers[i : i+1 : i+1], engines: s.engines[i : i+1 : i+1]}
		if s.breakers != nil {
			v.breakers = s.breakers[i : i+1 : i+1]
		}
		return v
	}
	return nil
}

// Reset invalidates every warm engine's accumulated state.
func (s *Set) Reset() {
	for _, e := range s.engines {
		if c, ok := e.(*smt.Context); ok {
			c.Reset()
		}
	}
}

// CheckEquiv races the engines on a == b at the given width. The first
// Equivalent/NotEquivalent verdict wins and the remaining engines are
// cancelled; if every engine exhausts the budget the result is
// Timeout, carrying the conflicts and propagations every engine spent.
// budget.Stop, when set, cancels the entire portfolio. Engines whose
// circuit breaker is open sit the race out (reported as Skipped in
// Engines). Each engine translates the sides itself, so a warm context
// interns them as it builds them.
func (s *Set) CheckEquiv(a, b *expr.Expr, width uint, budget smt.Budget) Result {
	start := time.Now()
	r := race(s, budget.Stop, func(i int, stop *atomic.Bool) smt.Result {
		return s.engines[i].CheckEquiv(a, b, width, withStop(budget, stop))
	}, equivReport)
	res := Result{Result: r.best, Winner: r.winner, Engines: r.engines}
	if r.winner == "" {
		res.Result = smt.Result{Status: smt.Timeout, Reason: r.reason}
		res.Conflicts, res.Propagations = spent(r.engines)
	}
	res.Elapsed = time.Since(start)
	return res
}

// SolveAssertions races the personalities on the conjunction of
// asserted width-1 terms; the first sat/unsat verdict wins, with
// breaker-skipped engines and a Timeout's spend as in CheckEquiv.
// Assertions always run on the stateless solvers: warm contexts answer
// equivalence queries only.
func (s *Set) SolveAssertions(assertions []*bv.Term, budget smt.Budget) SatResult {
	start := time.Now()
	r := race(s, budget.Stop, func(i int, stop *atomic.Bool) smt.SatResult {
		return s.solvers[i].SolveAssertions(assertions, withStop(budget, stop))
	}, satReport)
	res := SatResult{SatResult: r.best, Winner: r.winner, Engines: r.engines}
	if r.winner == "" {
		res.SatResult = smt.SatResult{Status: smt.SatUnknown, Reason: r.reason}
		res.Conflicts, res.Propagations = spent(r.engines)
	}
	res.Elapsed = time.Since(start)
	return res
}

// spent totals the search effort of every engine in a race.
func spent(engines []Engine) (conflicts, propagations int64) {
	for _, e := range engines {
		conflicts += e.Conflicts
		propagations += e.Propagations
	}
	return conflicts, propagations
}

// equivReport is one equivalence result as its Engine entry, and
// whether it settles a race.
func equivReport(r smt.Result) (Engine, bool) {
	return Engine{
		Verdict:      r.Status.String(),
		Reason:       r.Reason,
		Elapsed:      r.Elapsed,
		Conflicts:    r.Conflicts,
		Propagations: r.Propagations,
		Rewritten:    r.Rewritten,
	}, r.Status == smt.Equivalent || r.Status == smt.NotEquivalent
}

// satReport is equivReport for satisfiability results.
func satReport(r smt.SatResult) (Engine, bool) {
	return Engine{
		Verdict:      r.Status.String(),
		Reason:       r.Reason,
		Elapsed:      r.Elapsed,
		Conflicts:    r.Conflicts,
		Propagations: r.Propagations,
	}, r.Status == smt.Satisfiable || r.Status == smt.Unsatisfiable
}

// raced is the outcome of one race: the winning engine's result and
// name ("" and the zero T when nobody won), the per-engine report in
// solver order, and, when nobody won, why.
type raced[T any] struct {
	best    T
	winner  string
	engines []Engine
	reason  smt.Reason
}

// withStop is an engine's copy of a query budget under its own stop
// flag.
func withStop(budget smt.Budget, stop *atomic.Bool) smt.Budget {
	budget.Stop = stop
	return budget
}

// race runs solve once per admitted engine (by solver index), cancels
// everyone as soon as some result is definitive, feeds every outcome to
// its breaker, and reports the engines in solver order. A non-nil
// parent flag cancels the whole race when raised.
//
// A lone admitted engine has no one to race: it runs inline on the
// caller's goroutine under the parent flag itself. Several run
// concurrently, each under a private stop flag.
func race[T any](s *Set, parent *atomic.Bool, solve func(i int, stop *atomic.Bool) T,
	report func(T) (Engine, bool)) raced[T] {

	idx := s.admitted()
	stops := make([]*atomic.Bool, len(idx))
	reports := make([]Engine, len(idx))
	definitive := make([]bool, len(idx))
	out := raced[T]{engines: make([]Engine, len(s.solvers))}
	win := -1
	if len(idx) == 1 {
		stops[0] = parent
		r := solve(idx[0], parent)
		if reports[0], definitive[0] = report(r); definitive[0] {
			win, out.best = 0, r
		}
	} else {
		type done struct {
			k int
			r T
		}
		ch := make(chan done, len(idx))
		for k, i := range idx {
			stops[k] = new(atomic.Bool)
			//lint:ignore goroutinelife ch is buffered to len(idx) so the send never blocks, and solve honors the per-engine stop flag raised by cancelAll
			go func(k, i int) { ch <- done{k, solve(i, stops[k])} }(k, i)
		}
		cancelAll := func() {
			for _, st := range stops {
				st.Store(true)
			}
		}

		// Propagate external cancellation while the race runs.
		watcherDone := make(chan struct{})
		defer close(watcherDone)
		if parent != nil {
			go func() {
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-watcherDone:
						return
					case <-tick.C:
						if parent.Load() {
							cancelAll()
							return
						}
					}
				}
			}()
		}

		for range idx {
			d := <-ch
			reports[d.k], definitive[d.k] = report(d.r)
			if win == -1 && definitive[d.k] {
				win, out.best = d.k, d.r
				cancelAll()
			}
		}
	}

	// Scatter the compacted race back to solver order.
	for i, sv := range s.solvers {
		out.engines[i] = Engine{Solver: sv.Name(), Verdict: "skipped", Skipped: true}
	}
	reasons := make([]smt.Reason, 0, len(idx))
	for k, i := range idx {
		e := reports[k]
		e.Solver = s.solvers[i].Name()
		// "Cancelled" means the engine was healthy but the race ended
		// under it: the stop flag was raised AND its own degradation
		// was the budget/stop kind. A panic or resource Unknown keeps
		// its true label even when the flag is up — otherwise any
		// engine that failed fast in a race someone else won would be
		// mislabeled as cancelled, hiding real failures from
		// observability and from its breaker.
		e.Cancelled = !definitive[k] && e.Reason == smt.ReasonBudget && stops[k] != nil && stops[k].Load()
		e.Won = k == win
		out.engines[i] = e
		// A cancelled run says nothing about the engine's health.
		if s.breakers != nil && !e.Cancelled {
			s.breakers[i].Report(e.Reason)
		}
		reasons = append(reasons, e.Reason)
	}
	if win >= 0 {
		out.winner = s.solvers[idx[win]].Name()
	} else {
		out.reason = portfolioReason(reasons)
	}
	return out
}

// admitted returns the indices of engines allowed to race now. If
// every breaker refuses, all engines run anyway: answering the query
// degraded beats refusing it, and a success will close the breakers.
func (s *Set) admitted() []int {
	all := make([]int, len(s.engines))
	for i := range all {
		all[i] = i
	}
	if s.breakers == nil {
		return all
	}
	idx := make([]int, 0, len(all))
	for i, b := range s.breakers {
		if b.Allow() {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return all
	}
	return idx
}

// portfolioReason summarizes why a whole race came back Unknown. Any
// engine that merely ran out of budget makes the verdict ReasonBudget
// — a retry with a bigger budget could still succeed — and only a race
// where every engine failed structurally reports resource/panic. A
// race with no engine at all is ReasonResource: nothing was available
// to answer.
func portfolioReason(reasons []smt.Reason) smt.Reason {
	if len(reasons) == 0 {
		return smt.ReasonResource
	}
	var fallback smt.Reason
	for _, r := range reasons {
		if r == smt.ReasonBudget {
			return r
		}
		if fallback == smt.ReasonNone {
			fallback = r
		}
	}
	return fallback
}

package smt

import (
	"time"

	"mbasolver/internal/bitblast"
	"mbasolver/internal/bv"
	"mbasolver/internal/expr"
	"mbasolver/internal/fault"
	"mbasolver/internal/sat"
)

// Context is a reusable incremental solving context for one solver
// personality. Where Solver builds a fresh rewriter, bit-blaster and
// SAT instance per query, a Context keeps all three alive across
// queries:
//
//   - an Interner hash-conses every incoming term, so structurally
//     equal subterms of successive queries are pointer-equal and the
//     pointer-keyed caches downstream (the Rewriter's memo, the
//     Blaster's per-node encoding cache and structural gate hash) hit
//     across queries, not just within one;
//   - one Blaster (and thus one SAT solver) per result width encodes
//     the union of all queries seen so far as a shared circuit, and
//     each query is checked under a per-query activation literal passed
//     to Solve as an assumption (MiniSat-style incremental solving), so
//     learned clauses, variable activities and saved phases survive
//     from query to query;
//   - activation literals are cached per distinct query term, so
//     re-checking a query the context has already seen re-runs only the
//     SAT search — which is itself near-instant when the previous
//     verdict's learned clauses still apply.
//
// The shared circuit stays satisfiable by construction: Tseitin gate
// clauses are definitional and each query's assertion is guarded by its
// activation literal, which is free unless assumed. Every learned
// clause is therefore implied by the circuit alone and sound for every
// later query.
//
// Growth is bounded by watermarks: a width whose solver outgrows the
// variable or clause watermark is recycled (its blaster and activation
// cache dropped, to be rebuilt on demand), and when the intern table
// outgrows the term watermark the whole context resets. A Blast call
// interrupted by a stop flag or deadline also forces that width's
// recycle, per the Blaster contract that a partially encoded circuit
// must be discarded.
//
// A Context is single-goroutine, like the Rewriter it embeds; use one
// per worker and never share one across goroutines.
type Context struct {
	s *Solver
	// Variable and term watermarks, set to the defaults by NewContext
	// (tests lower them).
	maxVars, maxTerms int

	in     *bv.Interner
	rw     *bv.Rewriter
	states map[uint]*ctxState

	// poisoned marks the context as possibly corrupted: a panic escaped
	// a query mid-way (leaving interner/rewriter/circuit in an arbitrary
	// state), or Corrupt was called. The next query fully Resets before
	// answering — a poisoned context must never serve from its caches,
	// because a wrong cached verdict is strictly worse than the rebuild.
	poisoned bool

	stats        ContextStats
	retiredBlast bitblast.Stats // encoding counters of recycled states
}

// Watermarks: generous enough that corpus-scale workloads never
// recycle, small enough that a context cannot grow unboundedly in a
// long-lived service worker. A width's solver is recycled when its
// variables pass defaultMaxVars or its problem plus learned clauses
// pass defaultMaxClauses; the whole context (interner, rewriter, all
// widths) resets when the intern table passes defaultMaxTerms.
const (
	defaultMaxVars    = 2_000_000
	defaultMaxClauses = 8_000_000
	defaultMaxTerms   = 1_000_000
)

// ContextStats reports a context's reuse and recycling counters.
type ContextStats struct {
	Queries    int64 // queries answered through this context
	ActHits    int64 // queries whose activation literal was reused
	Recycles   int64 // per-width solver recycles (watermark or interrupt)
	FullResets int64 // whole-context resets (intern table watermark)

	Intern bv.InternStats // hash-consing reuse
	Blast  bitblast.Stats // encoding-cache reuse, summed over all states

	// Size of the live shared circuits, summed over width states (the
	// quantities the variable and clause watermarks police).
	Vars    int
	Clauses int
	Learnts int
}

// ctxState is the incremental machinery for one result width.
type ctxState struct {
	bl        *bitblast.Blaster
	acts      map[*bv.Term]sat.Lit // rewritten query term -> activation literal
	varWidths map[string]uint      // widths declared in bl, to pre-empt VarBits panics
}

// NewContext returns an incremental context over this personality.
func (s *Solver) NewContext() *Context {
	return &Context{
		s:        s,
		maxVars:  defaultMaxVars,
		maxTerms: defaultMaxTerms,
		in:       bv.NewInterner(),
		rw:       bv.NewRewriter(s.level),
		states:   map[uint]*ctxState{},
	}
}

// Stats returns the context's reuse counters.
func (c *Context) Stats() ContextStats {
	out := c.stats
	out.Intern = c.in.Stats()
	out.Blast = c.retiredBlast
	for _, st := range c.states {
		out.Blast = out.Blast.Plus(st.bl.Stats())
		out.Vars += st.bl.S.NumVars()
		out.Clauses += st.bl.S.NumClauses()
		out.Learnts += st.bl.S.NumLearnts()
	}
	return out
}

// Reset drops every cached structure — interner, rewriter, all solver
// states. Callers use it to invalidate a context wholesale (e.g. a
// service worker recycling between tenants); it is also what the
// term watermark triggers internally.
func (c *Context) Reset() {
	c.retireAll()
	c.in = bv.NewInterner()
	c.rw = bv.NewRewriter(c.s.level)
	c.poisoned = false
	c.stats.FullResets++
}

// Corrupt simulates internal-state corruption: it scrambles every
// width's activation-literal cache (reusing one would answer the wrong
// query) and marks the context poisoned. The next query detects the
// mark and fully Resets before answering, so verdicts stay correct.
// Chaos tests use it to prove the poison-and-reset path; production
// code never calls it.
func (c *Context) Corrupt() {
	for _, st := range c.states {
		for q := range st.acts {
			st.acts[q] = st.acts[q].Not()
		}
	}
	c.poisoned = true
}

// ensureHealthy rebuilds a poisoned context before it serves a query.
func (c *Context) ensureHealthy() {
	if c.poisoned {
		c.Reset()
	}
}

// retireAll folds every live state's encoding counters into the
// retired total and drops the states.
func (c *Context) retireAll() {
	for w := range c.states {
		c.retire(w)
	}
}

// retire drops one width's state, keeping its encoding counters.
func (c *Context) retire(width uint) {
	st, ok := c.states[width]
	if !ok {
		return
	}
	c.retiredBlast = c.retiredBlast.Plus(st.bl.Stats())
	delete(c.states, width)
}

// state returns (building on demand) the incremental state for a
// result width, recycling first if a previous query left the blaster
// interrupted mid-encoding.
func (c *Context) state(width uint) *ctxState {
	if st, ok := c.states[width]; ok {
		if !st.bl.Stopped() {
			return st
		}
		c.retire(width)
		c.stats.Recycles++
	}
	st := &ctxState{
		bl:        bitblast.New(c.s.satOpts),
		acts:      map[*bv.Term]sat.Lit{},
		varWidths: map[string]uint{},
	}
	c.states[width] = st
	return st
}

// reconcileVars recycles the state when an incoming query declares a
// variable at a different width than the shared circuit already holds
// (the Blaster treats that as a caller bug and panics; across
// independent queries it is legitimate, so the context starts the width
// over instead). It returns the state to use, with the query's
// variables recorded.
func (c *Context) reconcileVars(width uint, st *ctxState, vars map[string]uint) *ctxState {
	for name, w := range vars {
		if prev, ok := st.varWidths[name]; ok && prev != w {
			c.retire(width)
			c.stats.Recycles++
			st = c.state(width)
			break
		}
	}
	for name, w := range vars {
		st.varWidths[name] = w
	}
	return st
}

// recycleIfOverLimit applies the growth watermarks after a query.
func (c *Context) recycleIfOverLimit(width uint, st *ctxState) {
	if st.bl.S.NumVars() > c.maxVars ||
		st.bl.S.NumClauses()+st.bl.S.NumLearnts() > defaultMaxClauses {
		c.retire(width)
		c.stats.Recycles++
	}
	if c.in.Len() > c.maxTerms {
		c.Reset()
	}
}

// CheckEquiv is Solver.CheckEquiv through the incremental context.
func (c *Context) CheckEquiv(a, b *expr.Expr, width uint, budget Budget) (res Result) {
	c.ensureHealthy()
	q := c.s.newQuery(budget)
	defer contain("smt.Context.CheckEquiv", q.start, &c.poisoned, &res)
	// Translation walks both trees; consult the budget first, like the
	// pipeline does before its heavy phases.
	if q.expired() {
		return q.unknown(ReasonBudget)
	}
	return c.check(q, c.in.FromExpr(a, width), c.in.FromExpr(b, width))
}

// CheckTermEquiv decides ta == tb within the budget, reusing every
// structure the context has accumulated. It returns the same verdicts
// as Solver.CheckTermEquiv on the same inputs: the word-level phase is
// the same pipeline, and the SAT phase decides the same query (UNSAT of
// ta != tb) over the same personality options — only warm-started.
//
// Like the one-shot path it is a solver boundary: a panic below it is
// contained to Unknown with ReasonPanic — and additionally poisons the
// context, because the panic may have left shared caches half-updated;
// the next query rebuilds from scratch rather than trusting them.
func (c *Context) CheckTermEquiv(ta, tb *bv.Term, budget Budget) (res Result) {
	c.ensureHealthy()
	q := c.s.newQuery(budget)
	defer contain("smt.Context.CheckTermEquiv", q.start, &c.poisoned, &res)
	return c.check(q, ta, tb)
}

// check runs an equivalence query through the pipeline on the
// context's interner, rewriter and warm circuits. Queries counts every
// query the pipeline answered, at the word level or by a search.
func (c *Context) check(q query, ta, tb *bv.Term) Result {
	res, answered := c.s.checkTerms(q, ta, tb, c.in, c.rw, c)
	if answered {
		c.stats.Queries++
	}
	return res
}

// The warm back end: the Context itself. Each result width keeps one
// live Blaster whose circuit is the union of every query seen so far;
// a query is checked under its activation literal.

// enter fires the smt.context fault site: simulated corruption damages
// the caches for real, then panics; the boundary poisons the context
// and the next query proves the reset path by answering correctly
// anyway.
func (c *Context) enter() {
	if siteContext.Fire() {
		c.Corrupt()
		fault.PanicAt("smt.context")
	}
}

func (c *Context) decide(q query) (Result, bool) {
	width := q.a.Width
	st := c.warmState(&q, width, bv.Vars(q.residual))
	bl := st.bl
	act, ok := c.activate(st, width, q.residual)
	if !ok {
		return q.unknown(bl.StopReason()), false
	}
	v, res := c.search(&q, bl, act)
	q.verdict(&res, v, bl)
	c.recycleIfOverLimit(width, st)
	return res, true
}

// warmState returns the state for key with vars reconciled, its
// Blaster armed for q.
func (c *Context) warmState(q *query, key uint, vars map[string]uint) *ctxState {
	st := c.reconcileVars(key, c.state(key), vars)
	q.arm(st.bl)
	return st
}

// activate returns the activation literal guarding t in st, encoding t
// on first sight. ok is false when encoding was interrupted: the
// partial circuit is unusable, so the state is dropped.
func (c *Context) activate(st *ctxState, key uint, t *bv.Term) (sat.Lit, bool) {
	if act, ok := st.acts[t]; ok {
		c.stats.ActHits++
		return act, true
	}
	out := st.bl.Blast(t)
	if out == nil {
		c.retire(key)
		c.stats.Recycles++
		return 0, false
	}
	act := st.bl.Assume(out[0])
	st.acts[t] = act
	return act, true
}

// search runs the warm solver under the activation literals and
// reports this query's spend: the persistent solver's counters are
// lifetime totals, so the query's share is a delta.
func (c *Context) search(q *query, bl *bitblast.Blaster, acts ...sat.Lit) (sat.Status, Result) {
	before := bl.S.Stats()
	v := bl.Solve(q.satBudget(), acts...)
	after := bl.S.Stats()
	return v, Result{
		Elapsed:      time.Since(q.start),
		Conflicts:    after.Conflicts - before.Conflicts,
		Propagations: after.Propagations - before.Propagations,
	}
}

// Package sat implements a CDCL (conflict-driven clause learning)
// boolean satisfiability solver in the MiniSat lineage: two-watched-
// literal propagation, first-UIP conflict analysis with recursive
// clause minimization, exponential VSIDS variable activities, phase
// saving, Luby or geometric restarts, and activity/LBD-based learnt
// clause database reduction.
//
// It is the search engine underneath the bitvector solvers in
// internal/smt, standing in for the SAT cores of Z3, STP and Boolector
// in the paper's experiments. Resource budgets (conflicts, propagations
// and a wall-clock deadline) make solving interruptible, which the
// experiment harness uses to implement the paper's solving timeouts.
//
// Clauses live in one flat arena of literals, MiniSat style: a small
// header (size, LBD and learnt flag, activity) followed by the
// literals, addressed by offset. Watch lists, reasons and the clause
// lists hold offsets, so the clause database contains no pointers for
// the garbage collector to trace. reduceDB frees clauses by accounting
// and compacts the arena once garbage exceeds half of it, rewriting
// every offset in place so watch-list order, and with it the search,
// is unchanged. Conflict analysis, clause minimization, LBD and
// AddClause work in solver-owned scratch, and Reset empties a solver
// for a new instance while keeping all of that capacity (internal/smt
// pools whole blasters across fresh queries this way).
package sat

import (
	"bufio"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"mbasolver/internal/fault"
)

// Fault-injection sites (no-ops unless a chaos plan arms them):
// sat.learn simulates an allocation failure in the learnt-clause
// database, sat.propagate forces a budget expiry from inside the
// search loop's budget check.
var (
	siteLearn     = fault.NewSite("sat.learn")
	sitePropagate = fault.NewSite("sat.propagate")
)

// Status is the outcome of a Solve call.
type Status int8

const (
	// Unknown means the solver exhausted its budget before deciding.
	Unknown Status = iota
	// Sat means a satisfying assignment was found; see Model.
	Sat
	// Unsat means the formula was proved unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Var is a 0-based propositional variable index.
type Var int32

// Lit is a literal: variable times two, plus one if negated.
type Lit int32

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// lbool is a lifted boolean: true, false or undefined.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Options tunes the search. The three SMT personalities in
// internal/smt use different option sets.
type Options struct {
	// VarDecay is the VSIDS activity decay factor in (0,1); typical
	// 0.95. Higher = longer memory.
	VarDecay float64
	// ClauseDecay is the learnt clause activity decay; typical 0.999.
	ClauseDecay float64
	// RestartLuby selects Luby restarts; otherwise restarts are
	// geometric with factor RestartInc.
	RestartLuby bool
	// RestartBase is the first restart interval in conflicts.
	RestartBase int
	// RestartInc is the geometric restart growth factor (>1).
	RestartInc float64
	// PhaseSaving re-decides variables with their last assigned
	// polarity.
	PhaseSaving bool
	// DefaultPhase is the polarity used for never-assigned variables
	// (false = assign false first, the MiniSat default).
	DefaultPhase bool
	// LearntsFraction caps the learnt database at this multiple of the
	// problem clauses before reduction; typical 1.0/3.
	LearntsFraction float64
}

// DefaultOptions returns a balanced MiniSat-like configuration.
func DefaultOptions() Options {
	return Options{
		VarDecay:        0.95,
		ClauseDecay:     0.999,
		RestartLuby:     true,
		RestartBase:     100,
		RestartInc:      2.0,
		PhaseSaving:     true,
		DefaultPhase:    false,
		LearntsFraction: 1.0 / 3.0,
	}
}

// Budget bounds a Solve call. Zero fields mean unlimited.
type Budget struct {
	Conflicts    int64
	Propagations int64
	Deadline     time.Time
	// MaxLits caps the live literal count of the clause database
	// (problem plus learnt clauses). When learning a clause would
	// exceed the cap, Solve returns Unknown with ReasonResource instead
	// of growing without bound — the memory-accounting half of the
	// graceful-degradation contract.
	MaxLits int64
	// Stop is an optional external cancellation flag. When another
	// goroutine sets it, Solve returns Unknown within a bounded amount
	// of search work (at most one conflict, one restart or
	// propsPerBudgetCheck propagations), leaving the solver consistent
	// and reusable. The flag is only ever read by the solver.
	Stop *atomic.Bool
}

// Budget-check cadence constants. The search loop calls checkBudget
// after every conflict and every restart, and additionally after every
// propsPerBudgetCheck propagations so that conflict-free (or
// conflict-starved) search phases still observe deadlines and
// cancellation. The Stop flag and the conflict/propagation counters are
// consulted on every check; the wall clock is only sampled every
// deadlineCheckPeriod checks, which bounds time.Now() overhead while
// keeping the worst-case deadline overshoot to a few milliseconds of
// search.
const (
	propsPerBudgetCheck = 4096
	deadlineCheckPeriod = 16
)

// Stats reports the work performed across the solver's lifetime.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	MaxLBD       int
}

// cref is a clause reference: the offset of the clause's header in
// the solver's arena.
type cref uint32

// noReason is the reason of decisions, assumptions, level-0 units and
// unassigned variables.
const noReason cref = math.MaxUint32

// Arena layout of one clause: clauseHeader words, then the literals.
// The activity is a float64 split into two words, so bumping and
// rescaling stay bit-identical to plain float64 arithmetic.
const (
	hdrSize      = 0 // literal count
	hdrFlags     = 1 // lbd<<1 | learnt
	hdrActLo     = 2 // activity bits 0..31; the forwarding offset during compaction
	hdrActHi     = 3 // activity bits 32..63
	clauseHeader = 4
)

type watcher struct {
	c       cref
	blocker Lit // cached literal; if true the clause is satisfied
}

// ErrAddAfterUnsat is returned by AddClause once the formula is known
// unsatisfiable at level 0.
var ErrAddAfterUnsat = errors.New("sat: clause added to an already-unsat solver")

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	opts Options

	arena   []Lit  // every attached clause: header then literals
	wasted  int    // arena words held by removed clauses
	clauses []cref // problem clauses
	learnts []cref

	watches [][]watcher // index: literal

	assign   []lbool // index: literal; both literals of a variable are set together
	level    []int32
	reason   []cref
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	order    *varHeap
	phase    []bool

	// Scratch reused across conflicts and clauses.
	seen        []byte // conflict analysis marks, by variable
	analyzeTs   []Lit
	minimizeS   []Lit
	learntBuf   []Lit    // analyze's learnt clause
	redundantS  []Lit    // litRedundant's DFS stack
	addBuf      []Lit    // AddClause's normalized clause
	levelStamp  []uint32 // computeLBD's per-level marks
	stamp       uint32   // computeLBD's current mark
	compactions int      // arena compactions run

	okay     bool // false once UNSAT at level 0
	model    []bool
	stats    Stats
	litsLive int64         // literals attached across problem + learnt clauses
	whyUnk   Reason        // why the last Solve returned Unknown
	proof    *bufio.Writer // DRAT output; nil when disabled
	// origClauses records clauses exactly as given to AddClause while
	// proof logging is enabled; DRAT proofs refute the original
	// formula, not its normalized form.
	origClauses [][]Lit
}

// New returns an empty solver with the given options.
func New(opts Options) *Solver {
	s := &Solver{}
	s.order = newVarHeap(&s.activity)
	s.Reset(opts)
	return s
}

// Reset empties the solver as if it were freshly built by New(opts):
// clauses, variables, statistics and proof output all go.
// It keeps the capacity of its arena, variable arrays, scratch and
// per-literal watch lists, so a reused solver searches exactly like a
// new one without growing its buffers again.
func (s *Solver) Reset(opts Options) {
	if opts.VarDecay == 0 {
		opts = DefaultOptions()
	}
	s.order.reset()
	*s = Solver{
		opts:       opts,
		varInc:     1,
		claInc:     1,
		okay:       true,
		order:      s.order,
		arena:      s.arena[:0],
		clauses:    s.clauses[:0],
		learnts:    s.learnts[:0],
		watches:    s.watches[:0],
		assign:     s.assign[:0],
		level:      s.level[:0],
		reason:     s.reason[:0],
		trail:      s.trail[:0],
		trailLim:   s.trailLim[:0],
		activity:   s.activity[:0],
		phase:      s.phase[:0],
		seen:       s.seen[:0],
		analyzeTs:  s.analyzeTs[:0],
		minimizeS:  s.minimizeS[:0],
		learntBuf:  s.learntBuf[:0],
		redundantS: s.redundantS[:0],
		addBuf:     s.addBuf[:0],
		levelStamp: s.levelStamp[:0],
	}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.assign = append(s.assign, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, s.opts.DefaultPhase)
	s.seen = append(s.seen, 0)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// Reuse the watch lists a Reset left behind.
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.order.insert(v)
	return v
}

func (s *Solver) value(l Lit) lbool { return s.assign[l] }

// varValue returns the variable's value, the value of its positive
// literal.
func (s *Solver) varValue(v Var) lbool { return s.assign[MkLit(v, false)] }

// AddClause adds a problem clause. It returns ErrAddAfterUnsat if the
// solver is already unsatisfiable, and silently discards tautologies.
// Adding an empty (or all-false) clause makes the solver unsat.
func (s *Solver) AddClause(lits ...Lit) error {
	if !s.okay {
		return ErrAddAfterUnsat
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause above decision level 0")
	}
	if s.proof != nil {
		s.origClauses = append(s.origClauses, append([]Lit(nil), lits...))
	}
	out, keep := s.normalize(lits)
	if !keep {
		return nil
	}
	switch len(out) {
	case 0:
		s.okay = false
		s.proofAdd(nil)
		s.proofFlush()
		return nil
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.okay = false
			s.proofAdd(nil)
			s.proofFlush()
		}
		return nil
	}
	c := s.alloc(out, false, 0)
	s.clauses = append(s.clauses, c)
	s.litsLive += int64(len(out))
	s.attach(c)
	return nil
}

// normalize copies lits into the solver's clause scratch without
// duplicates or literals false at level 0 (a sort-free dedup). keep
// is false when the clause is satisfied at level 0 or a tautology.
// The result aliases the scratch, valid until the next normalize.
func (s *Solver) normalize(lits []Lit) (out []Lit, keep bool) {
	out = s.addBuf[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return nil, false
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return nil, false
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out
	return out, true
}

// alloc appends a clause to the arena and returns its reference.
func (s *Solver) alloc(lits []Lit, learnt bool, lbd int) cref {
	c := cref(len(s.arena))
	flags := Lit(lbd << 1)
	if learnt {
		flags |= 1
	}
	s.arena = append(s.arena, Lit(len(lits)), flags, 0, 0)
	s.arena = append(s.arena, lits...)
	return c
}

// lits returns the clause's literals, aliasing the arena.
func (s *Solver) lits(c cref) []Lit {
	start := int(c) + clauseHeader
	end := start + int(s.arena[c+hdrSize])
	return s.arena[start:end:end]
}

func (s *Solver) isLearnt(c cref) bool { return s.arena[c+hdrFlags]&1 == 1 }

func (s *Solver) clauseLBD(c cref) int { return int(s.arena[c+hdrFlags] >> 1) }

func (s *Solver) clauseActivity(c cref) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[c+hdrActLo])) | uint64(uint32(s.arena[c+hdrActHi]))<<32)
}

func (s *Solver) setClauseActivity(c cref, a float64) {
	bits := math.Float64bits(a)
	s.arena[c+hdrActLo] = Lit(uint32(bits))
	s.arena[c+hdrActHi] = Lit(uint32(bits >> 32))
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, l0})
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.assign[l] = lTrue
	s.assign[l.Not()] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting
// clause or noReason.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := noReason
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict != noReason {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Ensure the false literal is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == lFalse {
				conflict = c
				s.qhead = len(s.trail)
				continue
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
		if conflict != noReason {
			return conflict
		}
	}
	return noReason
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (with the asserting literal first) and the backtrack level.
// The clause is solver-owned scratch, valid until the next conflict.
func (s *Solver) analyze(conflict cref) ([]Lit, int32) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := conflict

	for {
		start := 0
		if p != -1 {
			start = 1
		}
		if s.isLearnt(c) {
			s.bumpClause(c)
		}
		for _, q := range s.lits(c)[start:] {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		s.seen[p.Var()] = 0
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Minimize: remove literals implied by the rest of the clause.
	s.analyzeTs = s.analyzeTs[:0]
	var levels uint32 // abstraction of the levels of learnt[1:]
	for i, l := range learnt {
		s.analyzeTs = append(s.analyzeTs, l)
		s.seen[l.Var()] = 1
		if i > 0 {
			levels |= s.abstractLevel(l.Var())
		}
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.reason[learnt[i].Var()] == noReason || !s.litRedundant(learnt[i], levels) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	for _, l := range s.analyzeTs {
		s.seen[l.Var()] = 0
	}
	for _, l := range s.minimizeS {
		s.seen[l.Var()] = 0
	}
	s.minimizeS = s.minimizeS[:0]

	// Find the backtrack level: the highest level among the
	// non-asserting literals.
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	s.learntBuf = learnt
	return learnt, bt
}

// abstractLevel hashes v's decision level to one bit of a 32-bit set.
func (s *Solver) abstractLevel(v Var) uint32 { return 1 << (uint32(s.level[v]) & 31) }

// litRedundant checks whether l is implied by the other marked
// literals (recursive clause minimization, Sörensson & Biere). levels
// is the abstraction of the learnt clause's levels (MiniSat's prune):
// an implied literal at a level outside the clause fails at once. That
// cannot change the answer: every implied literal at such a level
// depends on that level's decision, which is in neither the clause nor
// any literal marked redundant, so the full search would fail too, and
// a failed call undoes its marks either way.
func (s *Solver) litRedundant(l Lit, levels uint32) bool {
	stack := append(s.redundantS[:0], l)
	defer func() { s.redundantS = stack[:0] }()
	top := len(s.minimizeS)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range s.lits(s.reason[p.Var()])[1:] {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == noReason || s.abstractLevel(v)&levels == 0 {
				// A decision not in the clause, or a literal whose
				// level has none: l is not redundant; undo the marks
				// made in this call.
				for _, m := range s.minimizeS[top:] {
					s.seen[m.Var()] = 0
				}
				s.minimizeS = s.minimizeS[:top]
				return false
			}
			s.seen[v] = 1
			s.minimizeS = append(s.minimizeS, q)
			stack = append(stack, q)
		}
	}
	return true
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c cref) {
	a := s.clauseActivity(c) + s.claInc
	s.setClauseActivity(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setClauseActivity(lc, s.clauseActivity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrackTo(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	bound := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assign[l] = lUndef
		s.assign[l.Not()] = lUndef
		s.reason[v] = noReason
		if s.opts.PhaseSaving {
			s.phase[v] = !l.Neg()
		}
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

// computeLBD counts the distinct decision levels in a clause (the
// "glue" of glucose-style heuristics), marking each level with a fresh
// stamp.
func (s *Solver) computeLBD(lits []Lit) int {
	for len(s.levelStamp) <= int(s.decisionLevel()) {
		s.levelStamp = append(s.levelStamp, 0)
	}
	s.stamp++
	if s.stamp == 0 {
		// The stamp wrapped: forget every old mark.
		clear(s.levelStamp)
		s.stamp = 1
	}
	n := 0
	for _, l := range lits {
		if lv := s.level[l.Var()]; s.levelStamp[lv] != s.stamp {
			s.levelStamp[lv] = s.stamp
			n++
		}
	}
	return n
}

func (s *Solver) pickBranchLit() (Lit, bool) {
	for {
		v, ok := s.order.removeMax()
		if !ok {
			return 0, false
		}
		if s.varValue(v) == lUndef {
			s.stats.Decisions++
			return MkLit(v, !s.phase[v]), true
		}
	}
}

// reduceDB removes roughly half of the learnt clauses, keeping the
// most active / lowest-LBD ones. Clauses locked as reasons survive.
// Removed clauses stay in the arena as garbage until it exceeds half
// of the arena, when compact reclaims it.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	// Partial selection by activity threshold: compute median
	// approximation via average.
	var sum float64
	for _, c := range s.learnts {
		sum += s.clauseActivity(c)
	}
	lim := sum / float64(len(s.learnts))
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		lits := s.lits(c)
		locked := s.reason[lits[0].Var()] == c && s.value(lits[0]) == lTrue
		if locked || s.clauseLBD(c) <= 2 || s.clauseActivity(c) >= lim {
			kept = append(kept, c)
			continue
		}
		s.detach(c)
		s.proofDelete(lits)
		s.litsLive -= int64(len(lits))
		s.stats.Removed++
		s.wasted += clauseHeader + len(lits)
	}
	s.learnts = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	s.unwatch(lits[0].Not(), c)
	s.unwatch(lits[1].Not(), c)
}

func (s *Solver) unwatch(wl Lit, c cref) {
	ws := s.watches[wl]
	for i, w := range ws {
		if w.c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[wl] = ws[:len(ws)-1]
			return
		}
	}
}

// compact copies the live clauses into a fresh arena, problem clauses
// then learnts in list order, and rewrites every reference in place:
// the clause lists, the watch lists and the reasons keep their order,
// so the search cannot tell that the clauses moved. Each moved
// clause's old header carries its new offset while references are
// rewritten; every reference is to a live clause, because removed
// clauses are detached and never locked as reasons.
func (s *Solver) compact() {
	to := make([]Lit, 0, len(s.arena)-s.wasted)
	move := func(refs []cref) {
		for i, c := range refs {
			n := cref(len(to))
			to = append(to, s.arena[c:c+clauseHeader+cref(s.arena[c+hdrSize])]...)
			s.arena[c+hdrActLo] = Lit(n)
			refs[i] = n
		}
	}
	move(s.clauses)
	move(s.learnts)
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = cref(s.arena[ws[i].c+hdrActLo])
		}
	}
	for v, r := range s.reason {
		if r != noReason {
			s.reason[v] = cref(s.arena[r+hdrActLo])
		}
	}
	s.arena = to
	s.wasted = 0
	s.compactions++
}

// luby returns the i-th element (1-based) of the Luby sequence.
//
//lint:ignore budgetloop O(log i) closed-form arithmetic, not search work: each recursion strictly shrinks i, so it terminates in under 64 steps regardless of budget
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// Solve searches for a satisfying assignment under the optional
// assumptions, within the budget. It returns Sat, Unsat or Unknown
// (budget exhausted). After Sat, Model returns the assignment. Unsat
// under assumptions means the assumptions are inconsistent with the
// formula (no final-conflict extraction is implemented).
func (s *Solver) Solve(budget Budget, assumptions ...Lit) Status {
	if s.proof != nil && len(assumptions) > 0 {
		panic("sat: proof logging is not supported with assumptions")
	}
	s.whyUnk = ReasonNone
	if !s.okay {
		return Unsat
	}
	if c := s.propagate(); c != noReason {
		s.okay = false
		s.proofAdd(nil)
		s.proofFlush()
		return Unsat
	}

	restartCount := int64(0)
	conflictBudgetAtStart := s.stats.Conflicts
	propBudgetAtStart := s.stats.Propagations
	conflictsSinceRestart := int64(0)
	restartLimit := s.firstRestartLimit()
	maxLearnts := float64(len(s.clauses))*s.opts.LearntsFraction + 100

	// checkBudget runs on every conflict, every restart, and every
	// propsPerBudgetCheck propagations. checks is a monotonic counter
	// local to this Solve call, so the deadline is sampled every
	// deadlineCheckPeriod-th check regardless of where the cumulative
	// conflict count started (the old Conflicts%64 gate could skip the
	// deadline forever on conflict-starved queries).
	checks := int64(0)
	lastCheckProps := s.stats.Propagations
	checkBudget := func() bool {
		checks++
		lastCheckProps = s.stats.Propagations
		// Chaos hook: a forced budget expiry injected mid-search, taking
		// exactly the path a real deadline would.
		if sitePropagate.Fire() {
			s.whyUnk = ReasonBudget
			return false
		}
		if budget.Stop != nil && budget.Stop.Load() {
			s.whyUnk = ReasonBudget
			return false
		}
		if budget.Conflicts > 0 && s.stats.Conflicts-conflictBudgetAtStart >= budget.Conflicts {
			s.whyUnk = ReasonBudget
			return false
		}
		if budget.Propagations > 0 && s.stats.Propagations-propBudgetAtStart >= budget.Propagations {
			s.whyUnk = ReasonBudget
			return false
		}
		if !budget.Deadline.IsZero() && checks%deadlineCheckPeriod == 0 && time.Now().After(budget.Deadline) {
			s.whyUnk = ReasonBudget
			return false
		}
		return true
	}
	bounded := budget.Stop != nil || budget.Conflicts > 0 ||
		budget.Propagations > 0 || !budget.Deadline.IsZero()

	// A budget that is already exhausted on entry (expired deadline,
	// raised stop flag) must not buy any search at all.
	if budget.Stop != nil && budget.Stop.Load() {
		s.whyUnk = ReasonBudget
		return Unknown
	}
	if !budget.Deadline.IsZero() && time.Now().After(budget.Deadline) {
		s.whyUnk = ReasonBudget
		return Unknown
	}

	defer s.backtrackTo(0)

	for {
		conflict := s.propagate()
		if conflict != noReason {
			s.stats.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.okay = false
				s.proofAdd(nil)
				s.proofFlush()
				return Unsat
			}
			learnt, bt := s.analyze(conflict)
			// Clause-database memory accounting: learning the clause
			// would cross the literal cap (or a chaos plan simulates the
			// allocation failing) — degrade to Unknown(ReasonResource)
			// rather than grow without bound. Unit learnts occupy no
			// clause storage and are exempt from the cap; the deferred
			// backtrackTo(0) leaves the solver consistent and reusable.
			if siteLearn.Fire() ||
				(budget.MaxLits > 0 && len(learnt) > 1 && s.litsLive+int64(len(learnt)) > budget.MaxLits) {
				s.whyUnk = ReasonResource
				return Unknown
			}
			s.proofAdd(learnt)
			lbd := 1 // unit learnts have glue 1 by definition
			if len(learnt) > 1 {
				lbd = s.computeLBD(learnt)
			}
			s.backtrackTo(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noReason)
			} else {
				c := s.alloc(learnt, true, lbd)
				s.litsLive += int64(len(learnt))
				if lbd > s.stats.MaxLBD {
					s.stats.MaxLBD = lbd
				}
				s.learnts = append(s.learnts, c)
				s.stats.Learnt++
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= s.opts.VarDecay
			s.claInc /= s.opts.ClauseDecay
			if !checkBudget() {
				return Unknown
			}
			continue
		}

		// No conflict: long propagation phases must still observe the
		// budget — a query can propagate millions of literals between
		// conflicts (or produce none at all before the first decision
		// settles), so deadlines and cancellation are re-checked every
		// propsPerBudgetCheck propagations, not only per conflict.
		if bounded && s.stats.Propagations-lastCheckProps >= propsPerBudgetCheck {
			if !checkBudget() {
				return Unknown
			}
		}

		// Restart, reduce, or decide.
		if conflictsSinceRestart >= restartLimit {
			restartCount++
			conflictsSinceRestart = 0
			restartLimit = s.nextRestartLimit(restartCount, restartLimit)
			s.stats.Restarts++
			s.backtrackTo(s.assumptionLevel(len(assumptions)))
			if !checkBudget() {
				return Unknown
			}
			continue
		}
		if float64(len(s.learnts)) > maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
			maxLearnts *= 1.1
		}

		// Place assumptions first.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep the
				// level/assumption indices aligned.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.uncheckedEnqueue(a, noReason)
			continue
		}

		l, ok := s.pickBranchLit()
		if !ok {
			// All variables assigned: SAT.
			s.model = make([]bool, s.NumVars())
			for v := range s.model {
				s.model[v] = s.varValue(Var(v)) == lTrue
			}
			s.proofFlush()
			return Sat
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(l, noReason)
	}
}

// assumptionLevel clamps restarts so assumption decisions survive.
func (s *Solver) assumptionLevel(n int) int32 {
	if int(s.decisionLevel()) < n {
		return s.decisionLevel()
	}
	return int32(n)
}

// firstRestartLimit returns the restart interval used before any
// restart has happened.
func (s *Solver) firstRestartLimit() int64 {
	if s.opts.RestartLuby {
		return satMul64(luby(1), int64(s.opts.RestartBase))
	}
	return int64(s.opts.RestartBase)
}

// nextRestartLimit returns the interval to use after the count-th
// restart. Geometric limits are derived incrementally from the
// previous limit — one multiply per restart instead of the old
// O(restartCount) recomputation — and saturate at MaxInt64: the
// float64→int64 conversion is implementation-defined once the value
// leaves the int64 range, and before this clamp a long-running
// geometric schedule could wrap to a negative limit, turning every
// conflict into a restart and degenerating the search.
func (s *Solver) nextRestartLimit(count, prev int64) int64 {
	if s.opts.RestartLuby {
		return satMul64(luby(count+1), int64(s.opts.RestartBase))
	}
	if prev == math.MaxInt64 {
		return prev
	}
	inc := s.opts.RestartInc
	if inc <= 1 {
		return prev // degenerate configuration: keep a constant schedule
	}
	next := float64(prev) * inc
	// float64(MaxInt64) is exactly 2^63; anything at or above it (or a
	// non-finite product) must clamp before the int64 conversion.
	if !(next < float64(math.MaxInt64)) {
		return math.MaxInt64
	}
	return int64(next)
}

// satMul64 multiplies two non-negative int64s, saturating at MaxInt64.
func satMul64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Model returns a copy of the satisfying assignment found by the last
// Sat result (nil if none); index by Var. Each call returns a fresh
// slice, so callers may mutate it — and hold it across later Solve
// calls — without corrupting or observing the solver's internal state.
func (s *Solver) Model() []bool {
	if s.model == nil {
		return nil
	}
	return append([]bool(nil), s.model...)
}

// ModelBit returns variable v's value in the last Sat model without
// copying the whole assignment; ok is false when no model is available
// or v was allocated after the model was captured.
func (s *Solver) ModelBit(v Var) (value, ok bool) {
	if s.model == nil || int(v) >= len(s.model) {
		return false, false
	}
	return s.model[v], true
}

// NumClauses returns the number of attached problem clauses (level-0
// units and satisfied clauses are absorbed at AddClause time and not
// counted).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the current learnt-clause count.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// UnknownReason explains the most recent Unknown verdict (ReasonNone
// after a definitive verdict or before any Solve call).
func (s *Solver) UnknownReason() Reason { return s.whyUnk }

// Stats returns cumulative search statistics.
func (s *Solver) Stats() Stats { return s.stats }

// Okay reports whether the solver is still consistent (no level-0
// unsat derived).
func (s *Solver) Okay() bool { return s.okay }

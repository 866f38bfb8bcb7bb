// Package smt assembles the word-level rewriter (internal/bv), the
// bit-blaster (internal/bitblast) and the CDCL engine (internal/sat)
// into complete quantifier-free bitvector solvers, and defines the
// three solver personalities used throughout the experiments as
// stand-ins for the paper's Z3, STP and Boolector:
//
//   - z3sim: basic word-level preprocessing, Luby restarts.
//   - stpsim: basic word-level preprocessing, geometric restarts and a
//     shorter VSIDS memory.
//   - btorsim: full word-level rewriting (hash-consed AIG-style
//     normalization) before blasting, Luby restarts.
//
// The personalities reproduce the relative ordering the paper observes
// (Boolector clearly ahead of Z3 and STP on linear MBA; all three stuck
// on high-alternation non-linear MBA) because the ordering stems from
// the preprocessing architecture, not from solver-specific magic.
package smt

import (
	"sync"
	"sync/atomic"
	"time"

	"mbasolver/internal/bitblast"
	"mbasolver/internal/bv"
	"mbasolver/internal/expr"
	"mbasolver/internal/fault"
	"mbasolver/internal/sat"
)

// Fault-injection sites (no-ops unless a chaos plan arms them):
// smt.rewrite panics inside the word-level phase to exercise the
// boundary containment (contain); smt.context corrupts an incremental
// Context's caches before panicking, exercising poison-and-reset.
var (
	siteRewrite = fault.NewSite("smt.rewrite")
	siteContext = fault.NewSite("smt.context")
)

// blasters pools the Blasters of fresh queries, one pool for every
// personality: Reset with the next query's options makes a returned
// Blaster search exactly like a new one, while its maps, clause arena
// and watch lists keep their grown capacity. Warm Contexts keep their
// own long-lived Blasters and never use it.
var blasters sync.Pool

// acquireBlaster returns an empty Blaster with the given options,
// reused from the pool when one is there.
func acquireBlaster(opts sat.Options) *bitblast.Blaster {
	if bl, ok := blasters.Get().(*bitblast.Blaster); ok {
		bl.Reset(opts)
		return bl
	}
	return bitblast.New(opts)
}

// releaseBlaster returns a Blaster to the pool once its query has
// read everything it needs from it. A query that panics never calls
// it, so a Blaster left half-updated by a panic is dropped, not reused.
func releaseBlaster(bl *bitblast.Blaster) { blasters.Put(bl) }

// Status is the outcome of an equivalence check.
type Status int8

const (
	// Timeout means the budget was exhausted before a verdict.
	Timeout Status = iota
	// Equivalent means the two expressions are equal for all inputs.
	Equivalent
	// NotEquivalent means a distinguishing witness was found.
	NotEquivalent
)

func (s Status) String() string {
	switch s {
	case Equivalent:
		return "equivalent"
	case NotEquivalent:
		return "not-equivalent"
	}
	return "timeout"
}

// Budget bounds one query. Zero fields are unlimited.
type Budget struct {
	// Timeout is the wall-clock limit.
	Timeout time.Duration
	// Conflicts bounds the CDCL conflict count, giving deterministic
	// "solving effort" limits for reproducible benchmarks.
	Conflicts int64
	// Stop is an optional external cancellation flag: raising it makes
	// the query return Timeout within milliseconds, whether it is
	// rewriting, bit-blasting or searching. The portfolio solver uses
	// it to cancel losing engines.
	Stop *atomic.Bool
	// MaxLits caps the SAT clause database in literals (problem plus
	// learned). A query that would exceed it degrades to Unknown with
	// ReasonResource instead of growing without bound.
	MaxLits int64
	// MaxVars caps the bit-blasted circuit in SAT variables; exceeding
	// it mid-encoding degrades to Unknown with ReasonResource.
	MaxVars int
	// NoScreen disables the pre-solve equivalence screen (random +
	// corner vector blocks on the bitsliced evaluator that refute
	// most non-identities before any rewriting or SAT work). The
	// differential suites use it to compare screened and unscreened
	// verdicts; production callers leave it off.
	NoScreen bool
}

// stopped reports whether the external cancellation flag is raised.
func (b Budget) stopped() bool { return b.Stop != nil && b.Stop.Load() }

// Result reports one equivalence query.
type Result struct {
	Status       Status
	Reason       Reason            // why Status is Unknown (ReasonNone otherwise)
	Witness      map[string]uint64 // distinguishing input when NotEquivalent
	Elapsed      time.Duration
	Conflicts    int64 // CDCL conflicts spent
	Propagations int64 // CDCL propagations spent
	Rewritten    bool  // verdict reached by word-level rewriting alone
	Screened     bool  // verdict reached by the pre-solve vector screen
}

// Solver is one SMT solver personality. Solvers are stateless between
// queries (each query gets an empty SAT instance from the shared
// Blaster pool) and therefore safe for concurrent use.
type Solver struct {
	name    string
	level   bv.RewriteLevel
	satOpts sat.Options
	// speed models the engine's relative conflicts-per-second
	// throughput. The paper's timeout is wall clock, so a faster
	// engine fits proportionally more search into the same hour; our
	// budgets are conflict counts (for determinism), so the modeled
	// throughput scales the conflict budget instead. Calibrated to the
	// relative bitvector throughput of the real engines (Boolector's
	// SAT core is several times faster than Z3's).
	speed float64
}

// Name returns the personality name.
func (s *Solver) Name() string { return s.name }

// NewZ3Sim returns the Z3-like personality.
func NewZ3Sim() *Solver {
	opts := sat.DefaultOptions()
	opts.VarDecay = 0.95
	opts.RestartLuby = true
	opts.RestartBase = 100
	return &Solver{name: "z3sim", level: bv.RewriteBasic, satOpts: opts, speed: 1.0}
}

// NewSTPSim returns the STP-like personality.
func NewSTPSim() *Solver {
	opts := sat.DefaultOptions()
	opts.VarDecay = 0.91
	opts.RestartLuby = false
	opts.RestartBase = 150
	opts.RestartInc = 1.5
	return &Solver{name: "stpsim", level: bv.RewriteBasic, satOpts: opts, speed: 1.25}
}

// NewBoolectorSim returns the Boolector-like personality.
func NewBoolectorSim() *Solver {
	opts := sat.DefaultOptions()
	opts.VarDecay = 0.95
	opts.RestartLuby = true
	opts.RestartBase = 100
	return &Solver{name: "btorsim", level: bv.RewriteFull, satOpts: opts, speed: 4.0}
}

// All returns the three personalities in the paper's column order
// (Z3, STP, Boolector).
func All() []*Solver {
	return []*Solver{NewZ3Sim(), NewSTPSim(), NewBoolectorSim()}
}

// CheckEquiv decides whether a == b for all inputs at the given width,
// within the budget. The query is the paper's experiment shape: the
// negation (a != b) is bit-blasted and handed to the CDCL engine;
// UNSAT proves equivalence, SAT yields a witness.
func (s *Solver) CheckEquiv(a, b *expr.Expr, width uint, budget Budget) Result {
	ta := bv.FromExpr(a, width)
	tb := bv.FromExpr(b, width)
	return s.CheckTermEquiv(ta, tb, budget)
}

// CheckTermEquiv is CheckEquiv over pre-built bitvector terms. It is a
// solver boundary: any panic below it is contained and degrades to
// Unknown with ReasonPanic rather than crashing the caller (see
// contain).
func (s *Solver) CheckTermEquiv(ta, tb *bv.Term, budget Budget) (res Result) {
	q := s.newQuery(budget)
	defer contain("smt.CheckTermEquiv", q.start, nil, &res)
	res, _ = s.checkTerms(q, ta, tb, nil, nil, fresh{})
	return res
}

// NewCustom builds a personality with explicit rewrite level and SAT
// options — used by calibration experiments and tests.
func NewCustom(name string, level bv.RewriteLevel, opts sat.Options) *Solver {
	return &Solver{name: name, level: level, satOpts: opts, speed: 1.0}
}

// scaledConflicts applies the modeled engine throughput to a conflict
// budget (zero stays unlimited).
func (s *Solver) scaledConflicts(budget int64) int64 {
	if budget <= 0 || s.speed == 0 || s.speed == 1.0 {
		return budget
	}
	return int64(float64(budget) * s.speed)
}

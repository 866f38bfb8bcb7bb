// Package bitblast translates bitvector terms (internal/bv) into CNF
// over a CDCL SAT solver (internal/sat) using Tseitin encoding:
// bitwise operators become per-bit gates, addition becomes a
// ripple-carry adder chain, and multiplication a shift-and-add array of
// AND-gated partial products (O(w²) gates). Gates are structurally
// hashed, so a term DAG produced by the word-level rewriter blasts to a
// compact AIG-like circuit.
//
// This is the same architecture the paper's solvers (Z3, STP,
// Boolector) use for the quantifier-free bitvector fragment that MBA
// equations live in, and it reproduces their characteristic behaviour:
// equalities between structurally similar circuits are refuted or
// verified quickly, while high-alternation MBA identities force the SAT
// search into exponential case analysis.
package bitblast

import (
	"fmt"
	"sync/atomic"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/fault"
	"mbasolver/internal/sat"
)

// Fault-injection site (no-op unless a chaos plan arms it):
// bitblast.gate simulates an allocation failure while emitting gate
// literals, aborting the encoding like a memory cap would.
var siteGate = fault.NewSite("bitblast.gate")

// Blaster incrementally encodes terms into a SAT solver.
type Blaster struct {
	S *sat.Solver

	vars    map[string][]sat.Lit // BV variable -> bit literals, LSB first
	cache   map[*bv.Term][]sat.Lit
	gates   map[[3]int64]sat.Lit // structural gate hash: op,a,b -> output
	trueLit sat.Lit

	stop       *atomic.Bool // optional cancellation flag, checked while encoding
	deadline   time.Time    // optional wall-clock bound on encoding
	maxVars    int          // optional circuit-size cap (solver variables)
	stopped    bool         // a Blast call was interrupted (budget or resource)
	stopReason sat.Reason   // why the interrupted Blast aborted
	nodeCount  int          // term nodes encoded since the last budget check
	gateCount  int          // gate literals allocated since the last budget check

	stats Stats // encoding reuse counters
}

// Stats counts encoding-cache reuse. CacheHits/CacheMisses track the
// per-term-node encoding cache (hits require pointer-equal subterms, so
// they measure how much hash-consing pays off across queries);
// GateHits/GateMisses track the structural gate hash one level down.
type Stats struct {
	CacheHits   int64
	CacheMisses int64
	GateHits    int64
	GateMisses  int64
}

// Plus returns the counter-wise sum of s and o.
func (s Stats) Plus(o Stats) Stats {
	return Stats{s.CacheHits + o.CacheHits, s.CacheMisses + o.CacheMisses, s.GateHits + o.GateHits, s.GateMisses + o.GateMisses}
}

// Stats returns the Blaster's lifetime encoding counters. Callers
// measuring a single query on a long-lived Blaster should diff two
// snapshots.
func (b *Blaster) Stats() Stats { return b.stats }

// gate operator tags for the structural hash.
const (
	gAnd int64 = iota
	gOr
	gXor
)

// New returns a Blaster over a fresh solver with the given SAT options.
func New(opts sat.Options) *Blaster {
	b := &Blaster{
		S:     sat.New(opts),
		vars:  map[string][]sat.Lit{},
		cache: map[*bv.Term][]sat.Lit{},
		gates: map[[3]int64]sat.Lit{},
	}
	b.addTrue()
	return b
}

// Reset empties the Blaster as if it were freshly built by New(opts),
// keeping the capacity of its maps and of its solver (see
// sat.Solver.Reset). Stop flag, deadline, variable cap and the
// interrupted state are all cleared, so a Blaster whose Blast was
// aborted is reusable after Reset.
func (b *Blaster) Reset(opts sat.Options) {
	b.S.Reset(opts)
	clear(b.vars)
	clear(b.cache)
	clear(b.gates)
	*b = Blaster{S: b.S, vars: b.vars, cache: b.cache, gates: b.gates}
	b.addTrue()
}

// addTrue allocates the literal constrained true, used to encode
// constants.
func (b *Blaster) addTrue() {
	b.trueLit = sat.MkLit(b.S.NewVar(), false)
	b.S.AddClause(b.trueLit)
}

// True returns the constant-true literal.
func (b *Blaster) True() sat.Lit { return b.trueLit }

// False returns the constant-false literal.
func (b *Blaster) False() sat.Lit { return b.trueLit.Not() }

// VarBits returns (allocating on first use) the bit literals of a named
// bitvector variable.
func (b *Blaster) VarBits(name string, width uint) []sat.Lit {
	if bits, ok := b.vars[name]; ok {
		if uint(len(bits)) != width {
			panic(fmt.Sprintf("bitblast: variable %q redeclared at width %d (was %d)",
				name, width, len(bits)))
		}
		return bits
	}
	bits := make([]sat.Lit, width)
	for i := range bits {
		v := b.S.NewVar()
		bits[i] = sat.MkLit(v, false)
	}
	b.vars[name] = bits
	return bits
}

// SetStop installs a cancellation flag consulted periodically while
// encoding. When the flag is raised mid-Blast, Blast returns nil and
// Stopped reports true; the Blaster must then be discarded (the
// partially encoded circuit is not usable for further queries). The
// same flag is typically also passed to Solve via sat.Budget.Stop, so
// one signal cancels both phases of a query.
func (b *Blaster) SetStop(stop *atomic.Bool) { b.stop = stop }

// SetDeadline installs a wall-clock bound on encoding: a Blast call
// that overruns it aborts and returns nil, exactly like a raised stop
// flag. Large widths blast O(width^2) multiplier gates per node, so
// without this a query could exceed its whole budget before the SAT
// search ever looks at the clock.
func (b *Blaster) SetDeadline(d time.Time) { b.deadline = d }

// SetMaxVars installs a hard cap on the circuit size (SAT variables,
// which bound gates and clauses within a constant factor). A Blast
// call that would exceed it aborts and returns nil with StopReason
// ReasonResource — the blaster-cache half of the memory-accounting
// contract; zero means unlimited.
func (b *Blaster) SetMaxVars(n int) { b.maxVars = n }

// Stopped reports whether a Blast call was interrupted by the stop
// flag, the encoding deadline, or a resource cap.
func (b *Blaster) Stopped() bool { return b.stopped }

// StopReason explains an interrupted Blast (ReasonNone while the
// blaster is healthy): ReasonBudget for stop/deadline, ReasonResource
// for the variable cap or a simulated allocation failure.
func (b *Blaster) StopReason() sat.Reason { return b.stopReason }

// UnknownReason explains the last Unknown verdict end-to-end: the
// encoding abort reason when the blaster was interrupted, otherwise
// the SAT search's own reason.
func (b *Blaster) UnknownReason() sat.Reason {
	if b.stopped {
		return b.stopReason
	}
	return b.S.UnknownReason()
}

// Solve runs the underlying SAT solver on the asserted circuit. A
// Blaster whose encoding was interrupted reports Unknown without
// searching, and the stop flag installed with SetStop is threaded into
// the budget so solving stays cancellable end-to-end.
// Assumptions are passed through to the SAT solver and hold only for
// this call, which is what makes a long-lived Blaster reusable across
// queries: assert per-query constraints under an activation literal
// (see Assume) instead of as permanent unit clauses.
func (b *Blaster) Solve(budget sat.Budget, assumptions ...sat.Lit) sat.Status {
	if b.stopped {
		return sat.Unknown
	}
	if budget.Stop == nil {
		budget.Stop = b.stop
	}
	return b.S.Solve(budget, assumptions...)
}

// Assume returns a fresh activation literal act with the clause
// (¬act ∨ l) asserted, so passing act as a Solve assumption temporarily
// asserts l without committing the circuit to it. While act is not
// assumed the clause is vacuously satisfiable, so the shared circuit
// stays reusable for later queries; callers should cache and reuse the
// returned literal per distinct l rather than minting a new one each
// time.
func (b *Blaster) Assume(l sat.Lit) sat.Lit {
	act := sat.MkLit(b.S.NewVar(), false)
	b.S.AddClause(act.Not(), l)
	return act
}

// stopBlast unwinds an in-progress Blast recursion after the stop
// flag, the deadline, the variable cap, or an injected allocation
// failure was observed; reason says which kind.
type stopBlast struct{ reason sat.Reason }

// Budget-check cadence for encoding: the stop flag is consulted every
// blastNodeCheckPeriod term nodes and the deadline every
// blastGateCheckPeriod allocated gate literals (gates are the actual
// unit of encoding work; a single wide multiplication node can expand
// to thousands of them).
const (
	blastNodeCheckPeriod = 64
	blastGateCheckPeriod = 512
)

// interrupted reports whether encoding should abort now.
func (b *Blaster) interrupted() bool {
	if b.stop != nil && b.stop.Load() {
		return true
	}
	return !b.deadline.IsZero() && time.Now().After(b.deadline)
}

// bounded reports whether any encoding budget is installed.
func (b *Blaster) bounded() bool { return b.stop != nil || !b.deadline.IsZero() }

// Blast encodes the term and returns its bit literals (LSB first;
// width-1 predicates return a single literal). It returns nil if the
// encoding aborted mid-way: a stop flag installed with SetStop was
// raised, a deadline from SetDeadline expired, the SetMaxVars cap was
// hit, or an armed fault site fired; StopReason says which. The
// recovery below only contains the blaster's own unwind value — any
// other panic is a genuine bug and is re-raised.
func (b *Blaster) Blast(t *bv.Term) (out []sat.Lit) {
	if b.stopped || b.interrupted() {
		b.stopped = true
		if b.stopReason == sat.ReasonNone {
			b.stopReason = sat.ReasonBudget
		}
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			sb, ok := r.(stopBlast)
			if !ok {
				panic(r)
			}
			b.stopped = true
			b.stopReason = sb.reason
			out = nil
		}
	}()
	return b.blast(t)
}

func (b *Blaster) blast(t *bv.Term) []sat.Lit {
	if out, ok := b.cache[t]; ok {
		b.stats.CacheHits++
		return out
	}
	b.stats.CacheMisses++
	if b.bounded() {
		b.nodeCount++
		if b.nodeCount%blastNodeCheckPeriod == 0 && b.interrupted() {
			panic(stopBlast{sat.ReasonBudget})
		}
	}
	var out []sat.Lit
	switch t.Op {
	case bv.Const:
		out = make([]sat.Lit, t.Width)
		for i := range out {
			if t.Val>>uint(i)&1 == 1 {
				out[i] = b.True()
			} else {
				out[i] = b.False()
			}
		}
	case bv.Var:
		out = b.VarBits(t.Name, t.Width)
	case bv.Not:
		x := b.blast(t.Args[0])
		out = make([]sat.Lit, len(x))
		for i, l := range x {
			out[i] = l.Not()
		}
	case bv.Neg:
		// -x = ~x + 1.
		x := b.blast(t.Args[0])
		nx := make([]sat.Lit, len(x))
		for i, l := range x {
			nx[i] = l.Not()
		}
		one := make([]sat.Lit, len(x))
		for i := range one {
			one[i] = b.False()
		}
		one[0] = b.True()
		out = b.adder(nx, one, b.False())
	case bv.And, bv.Or, bv.Xor:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out = make([]sat.Lit, len(x))
		for i := range x {
			switch t.Op {
			case bv.And:
				out[i] = b.mkAnd(x[i], y[i])
			case bv.Or:
				out[i] = b.mkOr(x[i], y[i])
			default:
				out[i] = b.mkXor(x[i], y[i])
			}
		}
	case bv.Add:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out = b.adder(x, y, b.False())
	case bv.Sub:
		// x - y = x + ~y + 1.
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		ny := make([]sat.Lit, len(y))
		for i, l := range y {
			ny[i] = l.Not()
		}
		out = b.adder(x, ny, b.True())
	case bv.Mul:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out = b.multiplier(x, y)
	case bv.Eq:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out = []sat.Lit{b.equality(x, y)}
	case bv.Ne:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out = []sat.Lit{b.equality(x, y).Not()}
	case bv.Ult:
		x, y := b.blast(t.Args[0]), b.blast(t.Args[1])
		out = []sat.Lit{b.ult(x, y)}
	default:
		panic(fmt.Sprintf("bitblast: unsupported op %v", t.Op))
	}
	b.cache[t] = out
	return out
}

// AssertTrue constrains a single literal to hold.
func (b *Blaster) AssertTrue(l sat.Lit) { b.S.AddClause(l) }

// freshLit allocates a new gate output literal. Gate allocation is the
// unit of encoding work, so the encoding budget is re-checked here
// every blastGateCheckPeriod gates, and it is where both the circuit-
// size cap and the simulated allocation failure strike.
func (b *Blaster) freshLit() sat.Lit {
	if siteGate.Fire() || (b.maxVars > 0 && b.S.NumVars() >= b.maxVars) {
		panic(stopBlast{sat.ReasonResource})
	}
	if b.bounded() {
		b.gateCount++
		if b.gateCount%blastGateCheckPeriod == 0 && b.interrupted() {
			panic(stopBlast{sat.ReasonBudget})
		}
	}
	return sat.MkLit(b.S.NewVar(), false)
}

// gateKey builds the structural hash key, commutative-normalized.
func gateKey(op int64, a, c sat.Lit) [3]int64 {
	if c < a {
		a, c = c, a
	}
	return [3]int64{op, int64(a), int64(c)}
}

// mkAnd returns a literal equivalent to a ∧ c (Tseitin, hashed).
func (b *Blaster) mkAnd(a, c sat.Lit) sat.Lit {
	// Constant and trivial cases.
	switch {
	case a == b.False() || c == b.False():
		return b.False()
	case a == b.True():
		return c
	case c == b.True():
		return a
	case a == c:
		return a
	case a == c.Not():
		return b.False()
	}
	k := gateKey(gAnd, a, c)
	if o, ok := b.gates[k]; ok {
		b.stats.GateHits++
		return o
	}
	b.stats.GateMisses++
	o := b.freshLit()
	// o <-> a & c.
	b.S.AddClause(o.Not(), a)
	b.S.AddClause(o.Not(), c)
	b.S.AddClause(o, a.Not(), c.Not())
	b.gates[k] = o
	return o
}

// mkOr returns a ∨ c via De Morgan on the AND gate hash.
func (b *Blaster) mkOr(a, c sat.Lit) sat.Lit {
	return b.mkAnd(a.Not(), c.Not()).Not()
}

// mkXor returns a ⊕ c (Tseitin, hashed).
func (b *Blaster) mkXor(a, c sat.Lit) sat.Lit {
	switch {
	case a == b.False():
		return c
	case c == b.False():
		return a
	case a == b.True():
		return c.Not()
	case c == b.True():
		return a.Not()
	case a == c:
		return b.False()
	case a == c.Not():
		return b.True()
	}
	k := gateKey(gXor, a, c)
	if o, ok := b.gates[k]; ok {
		b.stats.GateHits++
		return o
	}
	// Normalize polarity: x ^ ~y = ~(x ^ y).
	k2 := gateKey(gXor, a.Not(), c.Not())
	if o, ok := b.gates[k2]; ok {
		b.stats.GateHits++
		return o
	}
	b.stats.GateMisses++
	o := b.freshLit()
	b.S.AddClause(o.Not(), a, c)
	b.S.AddClause(o.Not(), a.Not(), c.Not())
	b.S.AddClause(o, a.Not(), c)
	b.S.AddClause(o, a, c.Not())
	b.gates[k] = o
	return o
}

// adder returns x + y + carryIn over equal-width inputs (result
// truncated to the input width, as bitvector semantics require).
func (b *Blaster) adder(x, y []sat.Lit, carry sat.Lit) []sat.Lit {
	if len(x) != len(y) {
		panic("bitblast: adder width mismatch")
	}
	out := make([]sat.Lit, len(x))
	for i := range x {
		axy := b.mkXor(x[i], y[i])
		out[i] = b.mkXor(axy, carry)
		if i+1 < len(x) {
			// carry' = (x&y) | (carry & (x^y))
			carry = b.mkOr(b.mkAnd(x[i], y[i]), b.mkAnd(carry, axy))
		}
	}
	return out
}

// multiplier builds the shift-and-add array multiplier.
func (b *Blaster) multiplier(x, y []sat.Lit) []sat.Lit {
	w := len(x)
	acc := make([]sat.Lit, w)
	for i := range acc {
		acc[i] = b.False()
	}
	for i := 0; i < w; i++ {
		// Partial product: (x << i) & y[i], truncated to w bits.
		pp := make([]sat.Lit, w)
		for j := range pp {
			if j < i {
				pp[j] = b.False()
			} else {
				pp[j] = b.mkAnd(x[j-i], y[i])
			}
		}
		acc = b.adder(acc, pp, b.False())
	}
	return acc
}

// equality returns a literal that is true iff x == y bitwise.
func (b *Blaster) equality(x, y []sat.Lit) sat.Lit {
	if len(x) != len(y) {
		panic("bitblast: equality width mismatch")
	}
	acc := b.True()
	for i := range x {
		acc = b.mkAnd(acc, b.mkXor(x[i], y[i]).Not())
	}
	return acc
}

// ult returns a literal that is true iff x < y unsigned.
func (b *Blaster) ult(x, y []sat.Lit) sat.Lit {
	// Ripple from LSB: lt_i = (~x_i & y_i) | (x_i==y_i & lt_{i-1}).
	lt := b.False()
	for i := range x {
		eq := b.mkXor(x[i], y[i]).Not()
		lt = b.mkOr(b.mkAnd(x[i].Not(), y[i]), b.mkAnd(eq, lt))
	}
	return lt
}

// Model extracts the value of a named variable from the solver's model
// after a Sat result.
func (b *Blaster) Model(name string) (uint64, bool) {
	bits, ok := b.vars[name]
	if !ok {
		return 0, false
	}
	var v uint64
	for i, l := range bits {
		bit, ok := b.S.ModelBit(l.Var())
		if !ok {
			return 0, false
		}
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v, true
}

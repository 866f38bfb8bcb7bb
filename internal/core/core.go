// Package core implements MBA-Solver, the paper's contribution: a
// semantics-preserving simplifier for mixed bitwise-arithmetic
// expressions that reduces MBA alternation so that downstream SMT
// solvers regain their arithmetic reduction power (paper §4).
//
// The pipeline, following Algorithm 1:
//
//  1. Abstraction / common sub-expressions (§4.5): every maximal
//     arithmetic subtree sitting under a bitwise operator is
//     recursively simplified and replaced by a fresh variable;
//     syntactically equal simplified subtrees share one variable.
//  2. Normalization (§4.1–§4.3): every bitwise-pure subtree is replaced
//     by its normalized linear MBA over the conjunction basis
//     {x₁…x_t, conjunctions, −1}, obtained from its signature vector by
//     a Möbius transform, with a per-signature look-up table cache.
//  3. Arithmetic reduction (§4.4): the whole expression is expanded as
//     a polynomial over conjunction atoms and collected, cancelling
//     the expanded products (internal/poly).
//  4. Final-step optimization (§4.5): if the result is linear and its
//     signature is a multiple of a single boolean-function column, it
//     folds back into one bitwise expression (x+y−2(x∧y) → x⊕y).
//  5. The abstracted subtrees are substituted back and the pipeline is
//     re-run until a fixpoint (bounded), which resolves chains like
//     ¬(x−1) → −(x−1)−1 → −x.
package core

import (
	"fmt"

	"mbasolver/internal/expr"
	"mbasolver/internal/metrics"
	"mbasolver/internal/poly"
	"mbasolver/internal/truthtable"
)

// Basis selects the normalized base-vector set used when regenerating
// an expression from a signature vector.
type Basis uint8

const (
	// BasisConjunction is the paper's Table 4 basis
	// {x, y, x&y, ..., -1}: variables, conjunctions of two or more
	// variables, and the all-ones constant. Solving is a Möbius
	// transform, O(t·2^t).
	BasisConjunction Basis = iota
	// BasisDisjunction is the paper's Table 9 alternative
	// {x, y, x|y, ..., -1}, discussed in §7 (base vector selection).
	// Solving requires Gaussian elimination over Z/2^n.
	BasisDisjunction
)

func (b Basis) String() string {
	if b == BasisDisjunction {
		return "disjunction"
	}
	return "conjunction"
}

// Options configures a Simplifier.
type Options struct {
	// Width is the bit width n of the ring Z/2^n. Simplification at
	// width n is sound for every width <= n, so the default of 64
	// covers all machine widths. Must be in 1..64.
	Width uint
	// MaxVars bounds the number of distinct variables (including
	// abstraction temporaries) a signature vector may range over.
	// Expressions exceeding the bound are only partially simplified —
	// this is the budget whose exhaustion produces the paper's
	// "non-poly MBA that escape the normalization model". Default 6
	// (the truthtable package limit).
	MaxVars int
	// MaxIterations bounds the simplify-to-fixpoint loop. Default 4.
	MaxIterations int
	// DisableFinalOpt turns off the final-step optimization (§4.5);
	// used by the ablation benchmarks.
	DisableFinalOpt bool
	// DisableCSE turns off common-sub-expression sharing during
	// abstraction (§4.5); used by the ablation benchmarks.
	DisableCSE bool
	// DisableTable turns off the signature look-up table (§4.5); used
	// by the ablation benchmarks.
	DisableTable bool
	// Basis selects the normalization basis. Default BasisConjunction.
	Basis Basis
}

// Stats counts the work a Simplifier has performed; read it after
// simplification for the paper's Table 8 style reporting.
type Stats struct {
	Signatures   int // signature vectors computed
	TableHits    int // look-up table hits
	TableMisses  int // look-up table misses (normalizations computed)
	Abstractions int // arithmetic subtrees abstracted
	CSEHits      int // abstractions shared via common sub-expressions
	Iterations   int // fixpoint iterations across all Simplify calls
	Bailouts     int // sub-problems abandoned (too many variables)
}

// Simplifier holds the configuration, the look-up table and the
// statistics of one MBA-Solver instance. A Simplifier is not safe for
// concurrent use; create one per goroutine (the look-up table is cheap
// to repopulate).
type Simplifier struct {
	opts  Options
	table map[tableKey]tableRow
	bases map[string][]poly.Monomial // basis and variables -> basis monomials
	stats Stats
}

// New returns a Simplifier with the given options, applying defaults
// for zero fields. It panics on an invalid width.
func New(opts Options) *Simplifier {
	if opts.Width == 0 {
		opts.Width = 64
	}
	if opts.Width > 64 {
		panic(fmt.Sprintf("core: invalid width %d", opts.Width))
	}
	if opts.MaxVars == 0 {
		opts.MaxVars = truthtable.MaxVars
	}
	if opts.MaxVars > truthtable.MaxVars {
		opts.MaxVars = truthtable.MaxVars
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 4
	}
	return &Simplifier{opts: opts, table: map[tableKey]tableRow{}, bases: map[string][]poly.Monomial{}}
}

// Default returns a Simplifier with default options (width 64,
// conjunction basis, all optimizations on).
func Default() *Simplifier { return New(Options{}) }

// Options returns the effective options of the simplifier.
func (s *Simplifier) Options() Options { return s.opts }

// Stats returns the accumulated work counters.
func (s *Simplifier) Stats() Stats { return s.stats }

// ResetStats clears the work counters (the look-up table is kept).
func (s *Simplifier) ResetStats() { s.stats = Stats{} }

// maxExprNodes bounds the size of any expression the pipeline will
// process or emit. Substituting a shared abstraction temporary back
// into a normalized form can duplicate it up to 2^MaxVars times, so a
// pathological input (a deep tower of alternating operators) could
// otherwise grow exponentially across recursion levels. Every stage
// checks the bound with a path-budgeted traversal (sizeAtMost) that
// stays O(maxExprNodes) even on heavily shared trees.
const maxExprNodes = 4096

// sizeAtMost reports whether the expression has at most max nodes,
// counting shared subtrees once per path but aborting as soon as the
// budget is exceeded (so it never pays for an exponential blowup).
func sizeAtMost(e *expr.Expr, max int) bool {
	budget := max
	var walk func(*expr.Expr) bool
	walk = func(n *expr.Expr) bool {
		if n == nil {
			return true
		}
		budget--
		if budget < 0 {
			return false
		}
		return walk(n.X) && walk(n.Y)
	}
	return walk(e)
}

// Simplify returns a simplified expression provably equivalent to e
// over Z/2^Width (and therefore over every smaller width). The input
// tree is not mutated.
func (s *Simplifier) Simplify(e *expr.Expr) *expr.Expr {
	if !sizeAtMost(e, maxExprNodes) {
		s.stats.Bailouts++
		return e
	}
	prev := expr.Canon(e)
	for i := 0; i < s.opts.MaxIterations; i++ {
		s.stats.Iterations++
		raw := s.simplifyOnce(prev, 0)
		if !sizeAtMost(raw, maxExprNodes) {
			// The pass grew the expression past the budget (deeply
			// shared temporaries); keep the previous form.
			s.stats.Bailouts++
			break
		}
		next := expr.Canon(raw)
		if expr.Equal(next, prev) {
			break
		}
		prev = next
	}
	return prev
}

// maxRecursionDepth bounds recursive abstraction so that adversarial
// towers of alternating operators terminate.
const maxRecursionDepth = 64

// simplifyOnce runs one abstraction → normalization → polynomial
// reduction → final optimization pass.
func (s *Simplifier) simplifyOnce(e *expr.Expr, depth int) *expr.Expr {
	if depth > maxRecursionDepth || !sizeAtMost(e, maxExprNodes) {
		return e
	}
	abstracted, binds := s.abstract(e, depth)

	if len(expr.Vars(abstracted)) > s.opts.MaxVars {
		// Too many atoms to normalize as a whole; keep the recursively
		// simplified pieces (partial simplification, paper §6.1's
		// unsolved non-poly cases).
		s.stats.Bailouts++
		return substituteBindings(abstracted, binds)
	}

	p := s.polyOf(abstracted)
	out := p.ToExpr()
	if p.MaxDegree() <= 1 && !hasTempVars(out) {
		// Final-step optimization is sound only on linear MBA
		// (Theorem 1's iff needs linearity) and productive only once
		// abstraction temporaries are gone: folding -_t0-1 back into
		// ~_t0 would reintroduce the alternation the abstraction just
		// removed. With temporaries present we keep the normalized
		// linear form; the fixpoint loop in Simplify re-runs the
		// pipeline after substitution (e.g. ~(x-1) -> -(x-1)-1 -> -x).
		out = s.finalOptimize(out)
	}
	return substituteBindings(out, binds)
}

// binding records one abstracted subtree: the fresh variable name and
// the simplified subtree it stands for.
type binding struct {
	name string
	sub  *expr.Expr
}

func substituteBindings(e *expr.Expr, binds []binding) *expr.Expr {
	if len(binds) == 0 {
		return e
	}
	env := make(map[string]*expr.Expr, len(binds))
	for _, b := range binds {
		env[b.name] = b.sub
	}
	return expr.SubstituteVars(e, env)
}

// abstract replaces every maximal arithmetic-rooted (or constant)
// subtree under a bitwise operator with a fresh variable bound to the
// recursively simplified subtree. Equal simplified subtrees share one
// variable unless CSE is disabled. The returned expression therefore
// contains bitwise operators only over variables — i.e. every bitwise
// subtree is bitwise-pure — so polynomial expansion is always possible.
//
// Soundness: if F(t) ≡ G(t) as expressions over vars ∪ {t}, the
// equality holds for every value of t, in particular t = the abstracted
// subtree's value.
func (s *Simplifier) abstract(e *expr.Expr, depth int) (*expr.Expr, []binding) {
	var binds []binding
	byKey := map[string]string{} // canonical subtree key -> var name

	var walk func(n *expr.Expr, underBitwise bool) *expr.Expr
	walk = func(n *expr.Expr, underBitwise bool) *expr.Expr {
		if n.Op.IsLeaf() {
			if underBitwise && n.Op == expr.OpConst {
				return s.bind(n, &binds, byKey, depth)
			}
			return n
		}
		if underBitwise && n.Op.IsArith() {
			return s.bind(n, &binds, byKey, depth)
		}
		x := walk(n.X, n.Op.IsBitwise())
		var y *expr.Expr
		if n.Op.IsBinary() {
			y = walk(n.Y, n.Op.IsBitwise())
		}
		if x == n.X && y == n.Y {
			return n
		}
		c := *n
		c.X, c.Y = x, y
		return &c
	}
	return walk(e, false), binds
}

func (s *Simplifier) bind(n *expr.Expr, binds *[]binding, byKey map[string]string, depth int) *expr.Expr {
	s.stats.Abstractions++
	var sub *expr.Expr
	var key string
	if raw := s.simplifyOnce(n, depth+1); sizeAtMost(raw, maxExprNodes) {
		sub, key = expr.CanonKey(raw)
	} else {
		s.stats.Bailouts++
		sub, key = n, n.Key()
	}
	if !s.opts.DisableCSE {
		if name, ok := byKey[key]; ok {
			s.stats.CSEHits++
			return expr.Var(name)
		}
	}
	name := tempName(len(*binds))
	*binds = append(*binds, binding{name: name, sub: sub})
	byKey[key] = name
	return expr.Var(name)
}

// tempPrefix marks abstraction temporaries. The prefix is reserved:
// input expressions must not use variable names starting with it.
const tempPrefix = "_t"

// hasTempVars reports whether e still references abstraction
// temporaries.
func hasTempVars(e *expr.Expr) bool {
	found := false
	expr.Walk(e, func(n *expr.Expr) {
		if n.Op == expr.OpVar && len(n.Name) >= len(tempPrefix) && n.Name[:len(tempPrefix)] == tempPrefix {
			found = true
		}
	})
	return found
}

// better reports whether candidate a improves on b: strictly lower MBA
// alternation, or equal alternation and shorter text.
func better(a, b *expr.Expr) bool {
	aa, ab := metrics.Alternation(a), metrics.Alternation(b)
	if aa != ab {
		return aa < ab
	}
	return len(a.String()) < len(b.String())
}

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
//     syntactically equal simplified subtrees share one variable. Since
//     ¬a = −a−1, a subtree whose polynomial over plain atoms is −u−1
//     for an already bound u becomes ¬u rather than a second variable,
//     so t and −t−1 normalize as one atom and its complement.
//  2. Normalization (§4.1–§4.3): every bitwise-pure subtree is replaced
//     by its normalized linear MBA over the conjunction basis
//     {x₁…x_t, conjunctions, −1}, obtained from its signature vector by
//     a Möbius transform, with a per-signature look-up table cache.
//  3. Arithmetic reduction (§4.4): the whole expression is expanded as
//     a polynomial over conjunction atoms and collected, cancelling
//     the expanded products (internal/poly). The sum may have any
//     number of atoms: conjunction atoms are a basis whatever the
//     variable count, so the per-leaf normal forms collect into a
//     canonical polynomial.
//  4. Final-step optimization (§4.5): if the result is linear and its
//     signature is a multiple of a single boolean-function column, it
//     folds back into one bitwise expression (x+y−2(x∧y) → x⊕y). A
//     result bound under a bitwise operator folds too, over its
//     temporaries, when the multiple is 1 (u+v−(u∧v) → u∨v); its
//     parent re-normalizes it, so the top-level fold is still last.
//  5. The abstracted subtrees are substituted back and the pipeline is
//     re-run until a fixpoint (bounded), which resolves chains like
//     ¬(x−1) → −(x−1)−1 → −x.
//
// Two things stop simplification, each counted in Stats.Bailouts: a
// bitwise-pure leaf over more than truthtable.MaxVars variables stays
// an opaque atom, and an expression whose expansion or output would
// pass maxExprNodes keeps its recursively simplified pieces.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"mbasolver/internal/expr"
	"mbasolver/internal/metrics"
	"mbasolver/internal/poly"
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
	Bailouts     int // leaves over too many variables, expansions or outputs over the size budget
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
// otherwise grow exponentially across recursion levels. Simplify checks
// its input with a path-budgeted traversal (expandedSize); every pass
// then reports its output's size from the sizes of its pieces.
const maxExprNodes = 4096

// expandedSize returns e's node count once the temporaries in binds
// are substituted back, counting shared subtrees once per path and an
// occurrence of a temporary as the size of its bound subtree, and
// stopping as soon as the count passes maxExprNodes (so it never pays
// for an exponential blowup). temps reports whether e references a
// temporary or the count stopped early.
func expandedSize(e *expr.Expr, binds []binding) (size int, temps bool) {
	var walk func(*expr.Expr)
	walk = func(n *expr.Expr) {
		if n == nil || size > maxExprNodes {
			return
		}
		if n.Op == expr.OpVar && strings.HasPrefix(n.Name, tempPrefix) {
			temps = true
			if i, err := strconv.Atoi(n.Name[len(tempPrefix):]); err == nil && i >= 0 && i < len(binds) && binds[i].name == n.Name {
				size += binds[i].size
				return
			}
		}
		size++
		walk(n.X)
		walk(n.Y)
	}
	walk(e)
	return size, temps || size > maxExprNodes
}

// Simplify returns a simplified expression provably equivalent to e
// over Z/2^Width (and therefore over every smaller width). The input
// tree is not mutated.
func (s *Simplifier) Simplify(e *expr.Expr) *expr.Expr {
	if size, _ := expandedSize(e, nil); size > maxExprNodes {
		s.stats.Bailouts++
		return e
	}
	prev := expr.Canon(e)
	for i := 0; i < maxIterations; i++ {
		s.stats.Iterations++
		raw, size := s.simplifyOnce(prev, 0)
		if size > maxExprNodes {
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

// maxIterations bounds the simplify-to-fixpoint loop.
const maxIterations = 4

// maxRecursionDepth bounds recursive abstraction so that adversarial
// towers of alternating operators terminate.
const maxRecursionDepth = 64

// simplifyOnce runs one abstraction → normalization → polynomial
// reduction → final optimization pass over e, which is at most
// maxExprNodes in size, and returns the output with its expandedSize.
func (s *Simplifier) simplifyOnce(e *expr.Expr, depth int) (*expr.Expr, int) {
	if depth > maxRecursionDepth {
		size, _ := expandedSize(e, nil)
		return e, size
	}
	a := abstraction{s: s, depth: depth}
	abstracted := a.walk(e, false)

	// The sum is normalized whatever its atom count: polyOf normalizes
	// each bitwise-pure leaf over its own variables, and conjunction
	// atoms form a basis for any number of variables, so the collected
	// polynomial stays canonical. Only its size can stop it.
	p, ok := s.polyOf(abstracted)
	if !ok {
		// The expansion would pass the size budget; keep the
		// recursively simplified pieces.
		s.stats.Bailouts++
		size, _ := expandedSize(abstracted, a.binds)
		return a.substitute(abstracted), size
	}
	out := p.ToExpr()
	size, temps := expandedSize(out, a.binds)
	if temps {
		if depth > 0 {
			if f := a.foldBitwise(p); f != nil {
				out = f
				size, _ = expandedSize(out, a.binds)
			}
		}
		return a.substitute(out), size
	}
	if p.MaxDegree() <= 1 {
		// Final-step optimization is sound only on linear MBA
		// (Theorem 1's iff needs linearity) and productive only once
		// abstraction temporaries are gone: folding -_t0-1 back into
		// ~_t0 would reintroduce the alternation the abstraction just
		// removed. With temporaries present we keep the normalized
		// linear form; the fixpoint loop in Simplify re-runs the
		// pipeline after substitution (e.g. ~(x-1) -> -(x-1)-1 -> -x).
		out = s.finalOptimize(out)
		size, _ = expandedSize(out, nil)
	}
	return out, size
}

// binding records one abstracted subtree: the fresh variable name, the
// simplified subtree it stands for and that subtree's size.
type binding struct {
	name string
	sub  *expr.Expr
	size int
}

// abstraction is one abstraction pass at a recursion depth.
type abstraction struct {
	s     *Simplifier
	depth int
	binds []binding
	byKey map[string]string // canonical subtree key -> var name
	byNot map[string]string // poly key of -sub-1 -> var name, for binds[:nots]
	nots  int               // bindings whose -sub-1 key is in byNot
}

// substitute puts the bound subtrees back into e.
func (a *abstraction) substitute(e *expr.Expr) *expr.Expr {
	if len(a.binds) == 0 {
		return e
	}
	env := make(map[string]*expr.Expr, len(a.binds))
	for _, b := range a.binds {
		env[b.name] = b.sub
	}
	return expr.SubstituteVars(e, env)
}

// walk replaces every maximal arithmetic-rooted (or constant) subtree
// of n under a bitwise operator with a fresh variable bound to the
// recursively simplified subtree. Unless CSE is disabled, equal
// simplified subtrees share one variable u, and a subtree equal to
// -u-1 as a polynomial becomes ~u. The returned expression therefore
// contains bitwise operators only over variables — i.e. every bitwise
// subtree is bitwise-pure — so polynomial expansion is always possible.
//
// Soundness: if F(t) ≡ G(t) as expressions over vars ∪ {t}, the
// equality holds for every value of t, in particular t = the abstracted
// subtree's value.
func (a *abstraction) walk(n *expr.Expr, underBitwise bool) *expr.Expr {
	if n.Op.IsLeaf() {
		if underBitwise && n.Op == expr.OpConst {
			return a.bind(n)
		}
		return n
	}
	if underBitwise && n.Op.IsArith() {
		return a.bind(n)
	}
	x := a.walk(n.X, n.Op.IsBitwise())
	var y *expr.Expr
	if n.Op.IsBinary() {
		y = a.walk(n.Y, n.Op.IsBitwise())
	}
	if x == n.X && y == n.Y {
		return n
	}
	c := *n
	c.X, c.Y = x, y
	return &c
}

func (a *abstraction) bind(n *expr.Expr) *expr.Expr {
	a.s.stats.Abstractions++
	sub, size := a.s.simplifyOnce(n, a.depth+1)
	var key string
	if size <= maxExprNodes {
		sub, key, size = expr.CanonKey(sub)
	} else {
		a.s.stats.Bailouts++
		sub, key = n, n.Key()
		size, _ = expandedSize(n, nil)
	}
	var not string // the -sub-1 key, when computed
	probed := false
	if !a.s.opts.DisableCSE {
		if name, ok := a.byKey[key]; ok {
			a.s.stats.CSEHits++
			return expr.Var(name)
		}
		// A subtree whose polynomial is -u-1 for a bound u is ~u. With
		// no u bound yet there is nothing to compare, so the -u-1 keys
		// are built only once a second binding arrives.
		if len(a.binds) > 0 {
			for ; a.nots < len(a.binds); a.nots++ {
				b := a.binds[a.nots]
				a.byNot[a.complementKey(a.plainPoly(b.sub))] = b.name
			}
			var buf [128]byte
			p := a.plainPoly(sub)
			if name, ok := a.byNot[string(p.AppendKey(buf[:0]))]; ok {
				a.s.stats.CSEHits++
				return expr.Not(expr.Var(name))
			}
			not, probed = a.complementKey(p), true
		}
	}
	name := tempName(len(a.binds))
	a.binds = append(a.binds, binding{name: name, sub: sub, size: size})
	if a.byKey == nil {
		a.byKey, a.byNot = map[string]string{}, map[string]string{}
	}
	a.byKey[key] = name
	if probed {
		a.byNot[not] = name
		a.nots++
	}
	return expr.Var(name)
}

// plainPoly expands e over plain canonical atoms; an e too large to
// expand stands as one atom.
func (a *abstraction) plainPoly(e *expr.Expr) *poly.Poly {
	w := a.s.opts.Width
	if p, ok := poly.FromExprMax(e, w, poly.Atoms(w, poly.CanonAtom), maxExprNodes); ok {
		return p
	}
	p := poly.New(w)
	p.AddAtom(poly.CanonAtom(e), 1)
	return p
}

// complementKey turns p, the polynomial of u, into -u-1 and returns its
// key.
func (a *abstraction) complementKey(p *poly.Poly) string {
	var buf [128]byte
	p.Scale(^uint64(0))
	p.AddConst(^uint64(0))
	return string(p.AppendKey(buf[:0]))
}

// tempPrefix marks abstraction temporaries. The prefix is reserved:
// input expressions must not use variable names starting with it.
const tempPrefix = "_t"

// better reports whether candidate a improves on b: strictly lower MBA
// alternation, or equal alternation and shorter text.
func better(a, b *expr.Expr) bool {
	aa, ab := metrics.Alternation(a), metrics.Alternation(b)
	if aa != ab {
		return aa < ab
	}
	return len(a.String()) < len(b.String())
}

// Package poly implements multivariate polynomial arithmetic over the
// ring Z/2^n whose indeterminates are atoms: variables or opaque
// canonical bitwise expressions. It is the arithmetic-reduction
// substrate (the paper's ArithReduce step, SymPy in the original
// prototype): products are expanded distributively, like monomials are
// collected, and terms with zero coefficients cancel — which is exactly
// what turns
//
//	(x - x&y)*(y - x&y) + (x&y)*(x + y - x&y)
//
// into x*y in the paper's §4.4 worked example.
package poly

import (
	"slices"
	"strconv"
	"strings"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
)

// Atom is one polynomial indeterminate. Atoms are compared by Key, so
// expressions must be canonicalized (expr.Canon) before being used as
// atoms if syntactically different spellings should unify.
type Atom struct {
	Key string
	E   *expr.Expr
}

// NewAtom wraps an expression as an atom.
func NewAtom(e *expr.Expr) Atom { return Atom{Key: e.Key(), E: e} }

// CanonAtom canonicalizes e (expr.Canon) and wraps the result as an
// atom, taking its key from the same pass.
func CanonAtom(e *expr.Expr) Atom {
	c, key, _ := expr.CanonKey(e)
	return Atom{Key: key, E: c}
}

// factor is one atom raised to a positive power.
type factor struct {
	atom Atom
	pow  int
}

// Monomial is a product of atom powers: its factors sorted by atom key
// and its key, the factors as key^power joined by '.'. A monomial is
// immutable once built, so copies share its factor slice. The zero
// Monomial is the constant monomial, shared by every constant term.
type Monomial struct {
	factors []factor
	key     string
}

// appendMonoKey appends the key of the monomial with the given factors.
func appendMonoKey(b []byte, fs []factor) []byte {
	for i, f := range fs {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(append(append(b, f.atom.Key...), '^'), int64(f.pow), 10)
	}
	return b
}

// mergeFactors appends the factors of the product of a and b to dst.
func mergeFactors(dst, a, b []factor) []factor {
	for len(a) > 0 && len(b) > 0 {
		switch c := strings.Compare(a[0].atom.Key, b[0].atom.Key); {
		case c < 0:
			dst, a = append(dst, a[0]), a[1:]
		case c > 0:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst = append(dst, factor{a[0].atom, a[0].pow + b[0].pow})
			a, b = a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// Key is the canonical string of the monomial, used for collection.
func (m Monomial) Key() string { return m.key }

// Atom returns the atom of a monomial that is one atom to the first
// power.
func (m Monomial) Atom() (Atom, bool) {
	if len(m.factors) != 1 || m.factors[0].pow != 1 {
		return Atom{}, false
	}
	return m.factors[0].atom, true
}

// degree is the total degree of the monomial.
func (m Monomial) degree() int {
	d := 0
	for _, f := range m.factors {
		d += f.pow
	}
	return d
}

// Poly is a polynomial: a sum of coefficient·monomial terms, kept
// collected (no duplicate monomials; a term whose coefficient cancels
// to zero stays in place as a dead slot that a later term of the same
// monomial revives, and is skipped by every reader). Small polynomials
// find a monomial's slot by scanning; from indexAt terms on, an index
// map keeps the slots.
type Poly struct {
	Width uint
	terms []term
	index map[string]int32 // monomial key -> slot in terms
	live  int              // terms with a nonzero coefficient
}

const indexAt = 8

type term struct {
	coeff uint64
	mono  Monomial
}

// New returns the zero polynomial at the given width.
func New(width uint) *Poly { return &Poly{Width: width} }

// find returns the slot of the monomial with the given key.
func find[K string | []byte](p *Poly, key K) (int32, bool) {
	if p.index != nil {
		i, ok := p.index[string(key)]
		return i, ok
	}
	for i := range p.terms {
		if p.terms[i].mono.key == string(key) {
			return int32(i), true
		}
	}
	return 0, false
}

// IsZero reports whether the polynomial has no terms.
func (p *Poly) IsZero() bool { return p.live == 0 }

// IsConst reports whether the polynomial is a constant, returning it.
func (p *Poly) IsConst() (uint64, bool) {
	if p.live == 0 {
		return 0, true
	}
	if i, ok := find(p, ""); ok && p.live == 1 && p.terms[i].coeff != 0 {
		return p.terms[i].coeff, true
	}
	return 0, false
}

// Equal reports whether two polynomials have identical collected
// terms (same monomials with same coefficients). Because polynomials
// are kept collected, structural equality coincides with equality as
// formal polynomials over the atom set.
func (p *Poly) Equal(o *Poly) bool {
	if p.live != o.live {
		return false
	}
	for _, t := range p.terms {
		if t.coeff == 0 {
			continue
		}
		if i, ok := find(o, t.mono.key); !ok || o.terms[i].coeff != t.coeff {
			return false
		}
	}
	return true
}

// NumTerms returns the number of collected terms.
func (p *Poly) NumTerms() int { return p.live }

// Monomial returns m when p is 1·m for a non-constant monomial m.
func (p *Poly) Monomial() (Monomial, bool) {
	if p.live != 1 {
		return Monomial{}, false
	}
	for _, t := range p.terms {
		if t.coeff != 0 {
			return t.mono, t.coeff == 1 && len(t.mono.factors) > 0
		}
	}
	return Monomial{}, false
}

// MaxDegree returns the maximum monomial degree (0 for constants and
// the zero polynomial).
func (p *Poly) MaxDegree() int {
	d := 0
	for _, t := range p.terms {
		if t.coeff != 0 {
			d = max(d, t.mono.degree())
		}
	}
	return d
}

// addTerm adds c·m to p.
func (p *Poly) addTerm(c uint64, m Monomial) {
	if c&eval.Mask(p.Width) == 0 {
		return
	}
	if i, ok := find(p, m.key); ok {
		p.bump(i, c)
	} else {
		p.insert(c, m)
	}
}

// addFactors adds c times the monomial with the given key and factors,
// copying them only when p does not hold the monomial yet.
func (p *Poly) addFactors(c uint64, key []byte, fs []factor) {
	if c&eval.Mask(p.Width) == 0 {
		return
	}
	if i, ok := find(p, key); ok {
		p.bump(i, c)
	} else {
		p.insert(c, Monomial{factors: slices.Clone(fs), key: string(key)})
	}
}

// bump adds c to the coefficient in slot i.
func (p *Poly) bump(i int32, c uint64) {
	t := &p.terms[i]
	was := t.coeff != 0
	t.coeff = (t.coeff + c) & eval.Mask(p.Width)
	switch {
	case was && t.coeff == 0:
		p.live--
	case !was && t.coeff != 0:
		p.live++
	}
}

// insert appends a term for a monomial p does not hold yet.
func (p *Poly) insert(c uint64, m Monomial) {
	p.terms = append(p.terms, term{coeff: c & eval.Mask(p.Width), mono: m})
	p.live++
	switch n := len(p.terms); {
	case n == indexAt:
		p.index = make(map[string]int32, 2*indexAt)
		for i, t := range p.terms {
			p.index[t.mono.key] = int32(i)
		}
	case n > indexAt:
		p.index[m.key] = int32(n - 1)
	}
}

// AddConst adds the constant c to p in place.
func (p *Poly) AddConst(c uint64) { p.addTerm(c, Monomial{}) }

// AddAtom adds c·a to p in place.
func (p *Poly) AddAtom(a Atom, c uint64) {
	var buf [64]byte
	p.addFactors(c, append(append(buf[:0], a.Key...), "^1"...), []factor{{a, 1}})
}

// AtomMonomial returns the monomial a^1, for a caller that adds the
// same atom to many polynomials with AddMonomial.
func AtomMonomial(a Atom) Monomial { return Monomial{factors: []factor{{a, 1}}, key: a.Key + "^1"} }

// AddMonomial adds c·m to p in place.
func (p *Poly) AddMonomial(m Monomial, c uint64) { p.addTerm(c, m) }

// AddMul adds k·a·b, fully expanded and collected, to p in place and
// returns p, which must be neither a nor b.
func (p *Poly) AddMul(a, b *Poly, k uint64) *Poly {
	var fbuf [8]factor
	var kbuf [128]byte
	for _, ta := range a.terms {
		for _, tb := range b.terms {
			switch c := ta.coeff * tb.coeff * k; {
			case c&eval.Mask(p.Width) == 0: // also skips dead slots
			case len(tb.mono.factors) == 0:
				p.addTerm(c, ta.mono)
			case len(ta.mono.factors) == 0:
				p.addTerm(c, tb.mono)
			default:
				fs := mergeFactors(fbuf[:0], ta.mono.factors, tb.mono.factors)
				p.addFactors(c, appendMonoKey(kbuf[:0], fs), fs)
			}
		}
	}
	return p
}

// sortedTerms returns the live terms in deterministic order: by degree,
// then by monomial key, constant term last — producing readable
// renderings like x*y + 2*(x&y) - 5.
func (p *Poly) sortedTerms() []term {
	ts := make([]term, 0, p.live)
	for _, t := range p.terms {
		if t.coeff != 0 {
			ts = append(ts, t)
		}
	}
	slices.SortFunc(ts, func(a, b term) int {
		if da, db := a.mono.degree(), b.mono.degree(); da != db {
			return db - da
		}
		return strings.Compare(a.mono.key, b.mono.key)
	})
	return ts
}

// AppendKey appends a canonical key of the collected polynomial to b:
// two polynomials over the same atoms have equal keys exactly when
// they are equal. Each live term, in monomial key order, is written as
// its coefficient and its length-prefixed monomial key.
func (p *Poly) AppendKey(b []byte) []byte {
	var buf [indexAt]term
	ts := buf[:0]
	for _, t := range p.terms {
		if t.coeff != 0 {
			ts = append(ts, t)
		}
	}
	slices.SortFunc(ts, func(x, y term) int { return strings.Compare(x.mono.key, y.mono.key) })
	for _, t := range ts {
		b = strconv.AppendUint(b, t.coeff, 10)
		b = strconv.AppendInt(append(b, ':'), int64(len(t.mono.key)), 10)
		b = append(append(b, ':'), t.mono.key...)
	}
	return b
}

// Scale multiplies p by k in place.
func (p *Poly) Scale(k uint64) {
	p.live = 0
	for i := range p.terms {
		t := &p.terms[i]
		if t.coeff = t.coeff * k & eval.Mask(p.Width); t.coeff != 0 {
			p.live++
		}
	}
}

// Atoms returns the atoms referenced by p's terms in deterministic
// order.
func (p *Poly) Atoms() []Atom {
	used := map[string]Atom{}
	for _, t := range p.terms {
		if t.coeff != 0 {
			for _, f := range t.mono.factors {
				used[f.atom.Key] = f.atom
			}
		}
	}
	out := make([]Atom, 0, len(used))
	for _, a := range used {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b Atom) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// ToExpr renders the polynomial back to an expression tree, signed
// coefficients rendered as subtractions when the two's-complement value
// is a small negative.
func (p *Poly) ToExpr() *expr.Expr {
	e, _ := p.render(monoExpr)
	return e
}

// ToExprFunc renders p like ToExpr, with every non-constant monomial
// written as f's expression for it; ok is false if f returns nil for
// any of them.
func (p *Poly) ToExprFunc(f func(Monomial) *expr.Expr) (e *expr.Expr, ok bool) {
	return p.render(func(m Monomial, mag uint64) *expr.Expr {
		if len(m.factors) == 0 {
			return expr.Const(mag)
		}
		body := f(m)
		if body == nil || mag == 1 {
			return body
		}
		return expr.Mul(expr.Const(mag), body)
	})
}

// render sums the terms of p in sortedTerms order, each rendered by
// term from its monomial and coefficient magnitude; ok is false if term
// returns nil.
func (p *Poly) render(term func(m Monomial, mag uint64) *expr.Expr) (e *expr.Expr, ok bool) {
	if p.live == 0 {
		return expr.Const(0), true
	}
	var acc *expr.Expr
	for _, t := range p.sortedTerms() {
		neg := t.coeff>>(p.Width-1)&1 == 1
		mag := t.coeff
		if neg {
			mag = -mag & eval.Mask(p.Width)
		}
		body := term(t.mono, mag)
		if body == nil {
			return nil, false
		}
		switch {
		case acc == nil && !neg:
			acc = body
		case acc == nil:
			acc = expr.Neg(body)
		case neg:
			acc = expr.Sub(acc, body)
		default:
			acc = expr.Add(acc, body)
		}
	}
	return acc, true
}

// monoExpr renders coefficient·monomial with magnitude mag >= 0.
func monoExpr(m Monomial, mag uint64) *expr.Expr {
	var out *expr.Expr
	if mag != 1 || len(m.factors) == 0 {
		out = expr.Const(mag)
	}
	for _, f := range m.factors {
		for i := 0; i < f.pow; i++ {
			if out == nil {
				out = f.atom.E
			} else {
				out = expr.Mul(out, f.atom.E)
			}
		}
	}
	return out
}

// Leaf adds k·poly(e) to p in place, for a variable or bitwise-rooted
// subtree e, with AddAtom, AddMonomial and AddConst. It must not keep
// p, which may be scratch that FromExpr reuses.
type Leaf func(e *expr.Expr, p *Poly, k uint64)

// FromExpr expands an expression into a polynomial: constants fold,
// +, -, * and unary - expand, and every other subtree (a variable or a
// bitwise operation) is handed to leaf, which adds its polynomial —
// letting the caller atomize, canonicalize or normalize it first.
// Sums, differences, negations and constant factors carry a multiplier
// down to the leaves, which add straight into the result; only a
// product of two non-constant factors expands them into scratch
// polynomials first.
func FromExpr(e *expr.Expr, width uint, leaf Leaf) *Poly {
	p, _ := FromExprMax(e, width, leaf, 0)
	return p
}

// FromExprMax is FromExpr for untrusted input: a product of factors
// with more than max term pairs between them is not expanded, and ok
// is false; max 0 is unbounded. A product of k binomials has 2^k
// terms, so without the bound a small input can exhaust memory.
func FromExprMax(e *expr.Expr, width uint, leaf Leaf, max int) (p *Poly, ok bool) {
	p = New(width)
	x := expander{leaf: leaf, max: max}
	x.expand(p, e, 1)
	return p, !x.over
}

// Atoms is the FromExpr leaf that makes every non-arithmetic subtree
// one atom, built by atom (NewAtom, CanonAtom, or the caller's own).
func Atoms(width uint, atom func(*expr.Expr) Atom) Leaf {
	return func(e *expr.Expr, p *Poly, k uint64) { p.AddAtom(atom(e), k) }
}

// expander is one FromExpr walk: the leaf and the scratch polynomials
// that product factors are expanded into and then reused.
type expander struct {
	leaf  Leaf
	spare []*Poly
	max   int  // term pairs a product may have; 0 is unbounded
	over  bool // a product passed max and was dropped
}

// expand adds k·e to p in place.
func (x *expander) expand(p *Poly, e *expr.Expr, k uint64) {
	if x.over {
		return
	}
	switch e.Op {
	case expr.OpConst:
		p.AddConst(k * e.Val)
	case expr.OpAdd:
		x.expand(p, e.X, k)
		x.expand(p, e.Y, k)
	case expr.OpSub:
		x.expand(p, e.X, k)
		x.expand(p, e.Y, -k)
	case expr.OpNeg:
		x.expand(p, e.X, -k)
	case expr.OpMul:
		switch {
		case e.X.Op == expr.OpConst:
			x.expand(p, e.Y, k*e.X.Val)
		case e.Y.Op == expr.OpConst:
			x.expand(p, e.X, k*e.Y.Val)
		default:
			a, b := x.scratch(p.Width), x.scratch(p.Width)
			x.expand(a, e.X, 1)
			x.expand(b, e.Y, 1)
			if x.max > 0 && a.live*b.live > x.max {
				x.over = true
			} else {
				p.AddMul(a, b, k)
			}
			x.spare = append(x.spare, a, b)
		}
	default:
		x.leaf(e, p, k)
	}
}

// scratch returns an empty polynomial, reusing a spare one if any.
func (x *expander) scratch(width uint) *Poly {
	n := len(x.spare)
	if n == 0 {
		return New(width)
	}
	p := x.spare[n-1]
	x.spare = x.spare[:n-1]
	p.terms, p.index, p.live = p.terms[:0], nil, 0
	return p
}

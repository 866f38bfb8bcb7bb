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
	"sort"
	"strconv"

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
	c, key := expr.CanonKey(e)
	return Atom{Key: key, E: c}
}

// Monomial is a product of atom powers. The factor keys are kept
// sorted; Pow holds the exponent per key. A monomial is immutable once
// built, so its key is computed once, when it is built.
type Monomial struct {
	keys []string
	pow  map[string]int
	key  string
}

// one is the empty monomial (the constant-term monomial).
func one() *Monomial { return &Monomial{pow: map[string]int{}} }

// mulAtom returns the monomial multiplied by atom^k.
func (m *Monomial) mulAtom(key string, k int) *Monomial {
	out := m.clone(1)
	out.addFactor(key, k)
	out.seal()
	return out
}

func (m *Monomial) mul(o *Monomial) *Monomial {
	if len(o.keys) == 0 {
		return m
	}
	out := m.clone(len(o.keys))
	for _, k := range o.keys {
		out.addFactor(k, o.pow[k])
	}
	out.seal()
	return out
}

// clone copies m's factors with room for extra more.
func (m *Monomial) clone(extra int) *Monomial {
	out := &Monomial{
		keys: make([]string, len(m.keys), len(m.keys)+extra),
		pow:  make(map[string]int, len(m.keys)+extra),
	}
	copy(out.keys, m.keys)
	for _, k := range m.keys {
		out.pow[k] = m.pow[k]
	}
	return out
}

// addFactor multiplies a monomial under construction by atom^k,
// keeping keys sorted.
func (m *Monomial) addFactor(key string, k int) {
	if _, ok := m.pow[key]; !ok {
		i := sort.SearchStrings(m.keys, key)
		m.keys = append(m.keys, "")
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = key
	}
	m.pow[key] += k
}

// seal computes the key of a finished monomial: its factors as
// key^power, joined by '.'.
func (m *Monomial) seal() {
	n := 0
	for _, k := range m.keys {
		n += len(k) + 4
	}
	b := make([]byte, 0, n)
	for i, k := range m.keys {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(append(append(b, k...), '^'), int64(m.pow[k]), 10)
	}
	m.key = string(b)
}

// Key is the canonical string of the monomial, used for collection.
func (m *Monomial) Key() string { return m.key }

// Degree is the total degree of the monomial.
func (m *Monomial) Degree() int {
	d := 0
	for _, k := range m.keys {
		d += m.pow[k]
	}
	return d
}

// Poly is a polynomial: a sum of coefficient·monomial entries, kept
// collected (no duplicate monomials, no zero coefficients).
type Poly struct {
	Width uint
	terms map[string]*term // monomial key -> term
	atoms map[string]Atom  // atom key -> atom (for rendering)
}

type term struct {
	coeff uint64
	mono  *Monomial
}

// New returns the zero polynomial at the given width.
func New(width uint) *Poly {
	return &Poly{Width: width, terms: map[string]*term{}, atoms: map[string]Atom{}}
}

// FromConst returns the constant polynomial c.
func FromConst(c uint64, width uint) *Poly {
	p := New(width)
	p.addTerm(c, one())
	return p
}

// FromAtom returns the polynomial consisting of the single atom a.
func FromAtom(a Atom, width uint) *Poly {
	p := New(width)
	p.atoms[a.Key] = a
	p.addTerm(1, one().mulAtom(a.Key, 1))
	return p
}

// IsZero reports whether the polynomial has no terms.
func (p *Poly) IsZero() bool { return len(p.terms) == 0 }

// IsConst reports whether the polynomial is a constant, returning it.
func (p *Poly) IsConst() (uint64, bool) {
	if len(p.terms) == 0 {
		return 0, true
	}
	if len(p.terms) == 1 {
		if t, ok := p.terms[""]; ok {
			return t.coeff, true
		}
	}
	return 0, false
}

// Equal reports whether two polynomials have identical collected
// terms (same monomials with same coefficients). Because polynomials
// are kept collected, structural equality coincides with equality as
// formal polynomials over the atom set.
func (p *Poly) Equal(o *Poly) bool {
	if len(p.terms) != len(o.terms) {
		return false
	}
	for k, t := range p.terms {
		ot, ok := o.terms[k]
		if !ok || ot.coeff != t.coeff {
			return false
		}
	}
	return true
}

// NumTerms returns the number of collected terms.
func (p *Poly) NumTerms() int { return len(p.terms) }

// MaxDegree returns the maximum monomial degree (0 for constants and
// the zero polynomial).
func (p *Poly) MaxDegree() int {
	d := 0
	for _, t := range p.terms {
		if td := t.mono.Degree(); td > d {
			d = td
		}
	}
	return d
}

func (p *Poly) addTerm(c uint64, m *Monomial) {
	c &= eval.Mask(p.Width)
	if c == 0 {
		return
	}
	k := m.Key()
	if t, ok := p.terms[k]; ok {
		t.coeff = (t.coeff + c) & eval.Mask(p.Width)
		if t.coeff == 0 {
			delete(p.terms, k)
		}
		return
	}
	p.terms[k] = &term{coeff: c, mono: m}
}

func (p *Poly) mergeAtoms(o *Poly) {
	for k, a := range o.atoms {
		p.atoms[k] = a
	}
}

// Add returns p + o.
func (p *Poly) Add(o *Poly) *Poly { return p.clone().Accumulate(o, false) }

// Sub returns p - o.
func (p *Poly) Sub(o *Poly) *Poly { return p.clone().Accumulate(o, true) }

// Neg returns -p.
func (p *Poly) Neg() *Poly { return New(p.Width).Accumulate(p, true) }

// Accumulate adds o to p in place, or subtracts it when neg, and
// returns p. Unlike Add and Sub it mutates p, which must therefore be
// owned by the caller (fresh from New, FromConst, FromAtom or an
// arithmetic method, and held nowhere else) and must not be o.
// Folding a chain of k terms this way copies each term once instead of
// the O(k²) term copies of folding it with Add.
func (p *Poly) Accumulate(o *Poly, neg bool) *Poly {
	p.mergeAtoms(o)
	mask := eval.Mask(p.Width)
	for _, t := range o.terms {
		c := t.coeff
		if neg {
			c = -c & mask
		}
		p.addTerm(c, t.mono)
	}
	return p
}

// Mul returns p · o, fully expanded and collected.
func (p *Poly) Mul(o *Poly) *Poly {
	out := New(p.Width)
	out.mergeAtoms(p)
	out.mergeAtoms(o)
	for _, a := range p.terms {
		for _, b := range o.terms {
			out.addTerm(a.coeff*b.coeff, a.mono.mul(b.mono))
		}
	}
	return out
}

// MulConst returns c · p.
func (p *Poly) MulConst(c uint64) *Poly {
	out := New(p.Width)
	out.mergeAtoms(p)
	for _, t := range p.terms {
		out.addTerm(t.coeff*c, t.mono)
	}
	return out
}

func (p *Poly) clone() *Poly {
	out := New(p.Width)
	out.mergeAtoms(p)
	for k, t := range p.terms {
		out.terms[k] = &term{coeff: t.coeff, mono: t.mono}
	}
	return out
}

// sortedTerms returns the terms in deterministic order: by degree, then
// by monomial key, constant term last — producing readable renderings
// like x*y + 2*(x&y) - 5.
func (p *Poly) sortedTerms() []*term {
	ts := make([]*term, 0, len(p.terms))
	for _, t := range p.terms {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool {
		di, dj := ts[i].mono.Degree(), ts[j].mono.Degree()
		if di != dj {
			return di > dj
		}
		return ts[i].mono.Key() < ts[j].mono.Key()
	})
	return ts
}

// Atoms returns the atoms referenced by p's terms in deterministic
// order.
func (p *Poly) Atoms() []Atom {
	used := map[string]bool{}
	for _, t := range p.terms {
		for _, k := range t.mono.keys {
			used[k] = true
		}
	}
	keys := make([]string, 0, len(used))
	for k := range used {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Atom, len(keys))
	for i, k := range keys {
		out[i] = p.atoms[k]
	}
	return out
}

// ToExpr renders the polynomial back to an expression tree, signed
// coefficients rendered as subtractions when the two's-complement value
// is a small negative.
func (p *Poly) ToExpr() *expr.Expr {
	if len(p.terms) == 0 {
		return expr.Const(0)
	}
	var acc *expr.Expr
	for _, t := range p.sortedTerms() {
		c := t.coeff
		neg := isNegCoeff(c, p.Width)
		mag := c
		if neg {
			mag = -c & eval.Mask(p.Width)
		}
		body := p.monoExpr(t.mono, mag)
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
	return acc
}

// isNegCoeff decides whether to render a coefficient as negative: its
// signed interpretation at the polynomial's width is negative.
func isNegCoeff(c uint64, width uint) bool {
	return c>>(width-1)&1 == 1
}

// monoExpr renders coefficient·monomial with magnitude mag >= 0.
func (p *Poly) monoExpr(m *Monomial, mag uint64) *expr.Expr {
	var factors []*expr.Expr
	if mag != 1 || len(m.keys) == 0 {
		factors = append(factors, expr.Const(mag))
	}
	for _, k := range m.keys {
		a := p.atoms[k]
		for i := 0; i < m.pow[k]; i++ {
			factors = append(factors, a.E)
		}
	}
	out := factors[0]
	for _, f := range factors[1:] {
		out = expr.Mul(out, f)
	}
	return out
}

// FromExpr expands an expression into a polynomial: constants fold,
// +, -, * and unary - expand, and every other subtree (a variable or a
// bitwise operation) is handed to leaf, whose polynomial stands for it
// — letting the caller atomize, canonicalize or normalize it first.
// Sums, differences and negations accumulate into one owned polynomial
// (see Accumulate); leaf's results are only read.
func FromExpr(e *expr.Expr, width uint, leaf func(*expr.Expr) *Poly) *Poly {
	p := New(width)
	p.expand(e, false, leaf)
	return p
}

// Atoms is the FromExpr leaf that makes every non-arithmetic subtree
// one atom, built by atom (NewAtom, CanonAtom, or the caller's own).
func Atoms(width uint, atom func(*expr.Expr) Atom) func(*expr.Expr) *Poly {
	return func(e *expr.Expr) *Poly { return FromAtom(atom(e), width) }
}

// expand adds e to p in place, or subtracts it when neg.
func (p *Poly) expand(e *expr.Expr, neg bool, leaf func(*expr.Expr) *Poly) {
	switch e.Op {
	case expr.OpConst:
		c := e.Val
		if neg {
			c = -c
		}
		p.addTerm(c, one())
	case expr.OpAdd:
		p.expand(e.X, neg, leaf)
		p.expand(e.Y, neg, leaf)
	case expr.OpSub:
		p.expand(e.X, neg, leaf)
		p.expand(e.Y, !neg, leaf)
	case expr.OpNeg:
		p.expand(e.X, !neg, leaf)
	case expr.OpMul:
		p.Accumulate(FromExpr(e.X, p.Width, leaf).Mul(FromExpr(e.Y, p.Width, leaf)), neg)
	default:
		p.Accumulate(leaf(e), neg)
	}
}

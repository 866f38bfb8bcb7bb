package poly_test

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
	"mbasolver/internal/poly"
)

// This file keeps the map-based polynomial as a test-only reference:
// every monomial carries its own factor map, every polynomial carries
// an atom map beside its term map, and every leaf builds a throwaway
// polynomial that is then accumulated. The differential tests assert
// that the flat-monomial implementation renders, compares and reports
// exactly as it does.

type refMono struct {
	keys []string
	pow  map[string]int
	key  string
}

func refOne() *refMono { return &refMono{pow: map[string]int{}} }

func (m *refMono) mul(o *refMono) *refMono {
	out := &refMono{pow: map[string]int{}}
	for _, src := range []*refMono{m, o} {
		for _, k := range src.keys {
			if _, ok := out.pow[k]; !ok {
				out.keys = append(out.keys, k)
			}
			out.pow[k] += src.pow[k]
		}
	}
	sort.Strings(out.keys)
	for i, k := range out.keys {
		if i > 0 {
			out.key += "."
		}
		out.key += k + "^" + strconv.Itoa(out.pow[k])
	}
	return out
}

func (m *refMono) degree() int {
	d := 0
	for _, k := range m.keys {
		d += m.pow[k]
	}
	return d
}

type refTerm struct {
	coeff uint64
	mono  *refMono
}

type refPoly struct {
	width uint
	terms map[string]*refTerm
	atoms map[string]poly.Atom
}

func refNew(width uint) *refPoly {
	return &refPoly{width: width, terms: map[string]*refTerm{}, atoms: map[string]poly.Atom{}}
}

func refFromAtom(a poly.Atom, width uint) *refPoly {
	p := refNew(width)
	p.atoms[a.Key] = a
	p.addTerm(1, &refMono{keys: []string{a.Key}, pow: map[string]int{a.Key: 1}, key: a.Key + "^1"})
	return p
}

func (p *refPoly) addTerm(c uint64, m *refMono) {
	mask := eval.Mask(p.width)
	if c &= mask; c == 0 {
		return
	}
	if t, ok := p.terms[m.key]; ok {
		if t.coeff = (t.coeff + c) & mask; t.coeff == 0 {
			delete(p.terms, m.key)
		}
		return
	}
	p.terms[m.key] = &refTerm{coeff: c, mono: m}
}

func (p *refPoly) accumulate(o *refPoly, neg bool) {
	for k, a := range o.atoms {
		p.atoms[k] = a
	}
	for _, t := range o.terms {
		c := t.coeff
		if neg {
			c = -c
		}
		p.addTerm(c, t.mono)
	}
}

func (p *refPoly) mul(o *refPoly) *refPoly {
	out := refNew(p.width)
	for _, src := range []*refPoly{p, o} {
		for k, a := range src.atoms {
			out.atoms[k] = a
		}
	}
	for _, a := range p.terms {
		for _, b := range o.terms {
			out.addTerm(a.coeff*b.coeff, a.mono.mul(b.mono))
		}
	}
	return out
}

func (p *refPoly) isConst() (uint64, bool) {
	if len(p.terms) == 0 {
		return 0, true
	}
	if t, ok := p.terms[""]; ok && len(p.terms) == 1 {
		return t.coeff, true
	}
	return 0, false
}

func (p *refPoly) equal(o *refPoly) bool {
	if len(p.terms) != len(o.terms) {
		return false
	}
	for k, t := range p.terms {
		if ot, ok := o.terms[k]; !ok || ot.coeff != t.coeff {
			return false
		}
	}
	return true
}

func (p *refPoly) maxDegree() int {
	d := 0
	for _, t := range p.terms {
		d = max(d, t.mono.degree())
	}
	return d
}

func (p *refPoly) atomList() []poly.Atom {
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
	out := make([]poly.Atom, len(keys))
	for i, k := range keys {
		out[i] = p.atoms[k]
	}
	return out
}

func (p *refPoly) toExpr() *expr.Expr {
	ts := make([]*refTerm, 0, len(p.terms))
	for _, t := range p.terms {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool {
		if di, dj := ts[i].mono.degree(), ts[j].mono.degree(); di != dj {
			return di > dj
		}
		return ts[i].mono.key < ts[j].mono.key
	})
	mask := eval.Mask(p.width)
	acc := expr.Const(0)
	for i, t := range ts {
		neg := t.coeff>>(p.width-1)&1 == 1
		mag := t.coeff
		if neg {
			mag = -t.coeff & mask
		}
		var factors []*expr.Expr
		if mag != 1 || len(t.mono.keys) == 0 {
			factors = append(factors, expr.Const(mag))
		}
		for _, k := range t.mono.keys {
			for j := 0; j < t.mono.pow[k]; j++ {
				factors = append(factors, p.atoms[k].E)
			}
		}
		body := factors[0]
		for _, f := range factors[1:] {
			body = expr.Mul(body, f)
		}
		switch {
		case i == 0 && !neg:
			acc = body
		case i == 0:
			acc = expr.Neg(body)
		case neg:
			acc = expr.Sub(acc, body)
		default:
			acc = expr.Add(acc, body)
		}
	}
	return acc
}

// refFromExpr is the reference FromExpr with a leaf that returns a
// polynomial for every variable or bitwise subtree.
func refFromExpr(e *expr.Expr, width uint, leaf func(*expr.Expr) *refPoly) *refPoly {
	p := refNew(width)
	var expand func(e *expr.Expr, neg bool)
	expand = func(e *expr.Expr, neg bool) {
		switch e.Op {
		case expr.OpConst:
			c := e.Val
			if neg {
				c = -c
			}
			p.addTerm(c, refOne())
		case expr.OpAdd:
			expand(e.X, neg)
			expand(e.Y, neg)
		case expr.OpSub:
			expand(e.X, neg)
			expand(e.Y, !neg)
		case expr.OpNeg:
			expand(e.X, !neg)
		case expr.OpMul:
			p.accumulate(refFromExpr(e.X, width, leaf).mul(refFromExpr(e.Y, width, leaf)), neg)
		default:
			p.accumulate(leaf(e), neg)
		}
	}
	expand(e, false)
	return p
}

// refAtoms is the reference Atoms leaf.
func refAtoms(width uint, atom func(*expr.Expr) poly.Atom) func(*expr.Expr) *refPoly {
	return func(e *expr.Expr) *refPoly { return refFromAtom(atom(e), width) }
}

// diffInputs returns the differential corpus: both sides of gen
// corpora of every class at widths 8 and 64, the parser's seed
// expressions, and left-deep sums and products.
func diffInputs(t *testing.T) map[uint][]*expr.Expr {
	t.Helper()
	in := map[uint][]*expr.Expr{}
	for _, width := range []uint{8, 64} {
		for _, smp := range gen.New(gen.Config{Seed: 17, Width: width, CoeffRange: 300}).Corpus(30) {
			in[width] = append(in[width], smp.Obfuscated, smp.Ground)
		}
	}
	data, err := os.ReadFile("../parser/testdata/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	var extra []*expr.Expr
	for _, src := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		extra = append(extra, parser.MustParse(src))
	}
	for _, op := range []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul} {
		chain := expr.Var("x0")
		for i := 1; i < 12; i++ {
			chain = expr.Binary(op, chain, expr.Binary(op, expr.Var("x"+strconv.Itoa(i%5)), expr.Const(uint64(i))))
		}
		extra = append(extra, chain)
	}
	for _, width := range []uint{8, 64} {
		in[width] = append(in[width], extra...)
	}
	return in
}

// TestFromExprMatchesRef asserts that the flat-monomial polynomial
// agrees with the map-based reference on rendering (structure and
// text), equality, constancy, degree, term count and atom listing,
// under both atom leaves.
func TestFromExprMatchesRef(t *testing.T) {
	for width, exprs := range diffInputs(t) {
		for _, atom := range []func(*expr.Expr) poly.Atom{poly.CanonAtom, poly.NewAtom} {
			leaf, refLeaf := poly.Atoms(width, atom), refAtoms(width, atom)
			var prev *poly.Poly
			var prevRef *refPoly
			for _, e := range exprs {
				p, r := poly.FromExpr(e, width, leaf), refFromExpr(e, width, refLeaf)
				got, want := p.ToExpr(), r.toExpr()
				if !expr.Equal(got, want) || got.String() != want.String() {
					t.Fatalf("width %d: %v renders %v, reference %v", width, e, got, want)
				}
				gc, gok := p.IsConst()
				wc, wok := r.isConst()
				if gc != wc || gok != wok || p.MaxDegree() != r.maxDegree() || p.NumTerms() != len(r.terms) {
					t.Fatalf("width %d: %v: IsConst %d,%v MaxDegree %d NumTerms %d; reference %d,%v %d %d",
						width, e, gc, gok, p.MaxDegree(), p.NumTerms(), wc, wok, r.maxDegree(), len(r.terms))
				}
				ga, wa := p.Atoms(), r.atomList()
				if len(ga) != len(wa) {
					t.Fatalf("width %d: %v: %d atoms, reference %d", width, e, len(ga), len(wa))
				}
				for i := range ga {
					if ga[i].Key != wa[i].Key || !expr.Equal(ga[i].E, wa[i].E) {
						t.Fatalf("width %d: %v: atom %d is %q, reference %q", width, e, i, ga[i].Key, wa[i].Key)
					}
				}
				again, refAgain := poly.FromExpr(got, width, leaf), refFromExpr(want, width, refLeaf)
				if p.Equal(again) != r.equal(refAgain) || prev != nil && p.Equal(prev) != r.equal(prevRef) {
					t.Fatalf("width %d: %v: Equal disagrees with the reference", width, e)
				}
				prev, prevRef = p, r
			}
		}
	}
}

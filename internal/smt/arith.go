package smt

import (
	"mbasolver/internal/bv"
	"mbasolver/internal/poly"
)

// arithEqual decides term equality by word-level polynomial
// normalization: both sides are expanded as polynomials over Z/2^width
// whose indeterminates are the maximal non-arithmetic subterms (bitwise
// operations and variables), then compared canonically.
//
// All three of the paper's solvers perform this kind of arithmetic
// normalization in their word-level preprocessing (Z3's simplify
// tactic, STP's arithmetic solver, Boolector's rewriting); it is the
// "math reduction law" that MBA alternation defeats — bitwise atoms
// block the ring reasoning — and that MBA-Solver's simplification
// restores, which is why simplified queries solve in milliseconds.
//
// The check is sound but incomplete: true means provably equal; false
// means undecided (fall through to bit-blasting).
func arithEqual(a, b *bv.Term, rw *bv.Rewriter, width uint) bool {
	pa := termPoly(a, rw, width)
	pb := termPoly(b, rw, width)
	return pa.Equal(pb)
}

// termPoly expands an arithmetic term into a polynomial; bitwise
// subterms and variables become opaque atoms keyed by their canonical
// rewriter key (so x&y and y&x unify only if the rewrite level already
// unified them).
func termPoly(t *bv.Term, rw *bv.Rewriter, width uint) *poly.Poly {
	p := poly.New(width)
	addTermPoly(p, t, 1, rw)
	return p
}

// addTermPoly adds k·t to p in place, so a chain of sums accumulates
// into one polynomial.
func addTermPoly(p *poly.Poly, t *bv.Term, k uint64, rw *bv.Rewriter) {
	switch t.Op {
	case bv.Add:
		addTermPoly(p, t.Args[0], k, rw)
		addTermPoly(p, t.Args[1], k, rw)
	case bv.Sub:
		addTermPoly(p, t.Args[0], k, rw)
		addTermPoly(p, t.Args[1], -k, rw)
	case bv.Neg:
		addTermPoly(p, t.Args[0], -k, rw)
	case bv.Mul:
		p.AddMul(termPoly(t.Args[0], rw, p.Width), termPoly(t.Args[1], rw, p.Width), k)
	case bv.Const:
		p.AddConst(k * t.Val)
	default:
		p.AddAtom(poly.Atom{Key: rw.Key(t)}, k)
	}
}

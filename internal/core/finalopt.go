package core

import (
	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/poly"
	"mbasolver/internal/truthtable"
)

// finalOptimize implements the final-step optimization of §4.5: the
// normalized result contains only variables, conjunctions and
// constants, which is not always optimal — x+y-2*(x&y) is better
// written x^y. If the signature vector of the (linear) expression is a
// single scalar multiple of one boolean-function truth column, the
// whole expression folds into coefficient·bitwise-expression; the fold
// is kept only when it actually improves alternation or size.
//
// The paper stresses this must run only at the last step: folding
// intermediate results back into bitwise form would reintroduce the
// very alternation the pipeline removes.
func (s *Simplifier) finalOptimize(e *expr.Expr) *expr.Expr {
	if s.opts.DisableFinalOpt {
		return e
	}
	var buf [truthtable.MaxVars]string
	vars, ok := appendVars(buf[:0], e, 4) // sorted, the order signatures use
	if !ok || len(vars) == 0 {
		// Constants need no folding; >4 variables exceed the boolean
		// synthesis budget.
		return e
	}
	sig := truthtable.Compute(e, vars, s.opts.Width)
	s.stats.Signatures++

	if sig.IsZero() {
		return expr.Const(0)
	}
	if v, ok := allEqual(sig.S); ok {
		// Signature a·(all-ones column): the constant −a... but the
		// all-equal case folds directly to the constant value, since a
		// constant k has signature (−k, −k, …).
		return expr.Const(-v & eval.Mask(s.opts.Width))
	}

	coeff, tt, ok := singleColumn(sig)
	if !ok {
		return e
	}
	f := truthtable.MinimalBoolExpr(tt, vars)
	if f == nil {
		return e
	}
	cand := scaleExpr(coeff, f, s.opts.Width)
	if better(cand, e) {
		return cand
	}
	return e
}

// foldBitwise is the final-step fold for a result that still holds
// abstraction temporaries and is bound under a bitwise operator (depth
// > 0). It reads p as linear over the variables and temporaries, a
// product monomial standing for the temporary bound to exactly that
// product, and if the signature is one truth column with coefficient 1
// returns that column's bitwise expression; otherwise nil. So u+v-(u&v)
// becomes u|v, and the parent, (u|v)&u, normalizes to u. The fold does
// not undo the pipeline's work: the bitwise parent walks into the
// result, binds its arithmetic operands again and normalizes it with
// its siblings, so the fold that comes last is still the top-level
// finalOptimize.
func (a *abstraction) foldBitwise(p *poly.Poly) *expr.Expr {
	s := a.s
	if s.opts.DisableFinalOpt {
		return nil
	}
	var products map[string]string // product monomial key -> temporary, built on first use
	lin, ok := p.ToExprFunc(func(m poly.Monomial) *expr.Expr {
		if at, ok := m.Atom(); ok {
			return at.E
		}
		if products == nil {
			products = map[string]string{}
			for _, b := range a.binds {
				if bm, ok := a.plainPoly(b.sub).Monomial(); ok {
					if _, atom := bm.Atom(); !atom {
						products[bm.Key()] = b.name
					}
				}
			}
		}
		if name, ok := products[m.Key()]; ok {
			return expr.Var(name)
		}
		return nil
	})
	if !ok {
		return nil
	}
	var buf [truthtable.MaxVars]string
	vars, ok := appendVars(buf[:0], lin, 4)
	if !ok || len(vars) == 0 {
		return nil
	}
	sig := truthtable.Compute(lin, vars, s.opts.Width)
	s.stats.Signatures++
	if coeff, tt, ok := singleColumn(sig); ok && coeff == 1 {
		if f := truthtable.MinimalBoolExpr(tt, vars); f != nil && f.Op.IsBitwise() {
			return f
		}
	}
	return nil
}

// allEqual reports whether every entry equals the first.
func allEqual(s []uint64) (uint64, bool) {
	for _, v := range s[1:] {
		if v != s[0] {
			return 0, false
		}
	}
	return s[0], true
}

// singleColumn decomposes the signature as coeff·column if every
// nonzero entry carries the same value; the column is returned as a
// truth-table bitmask.
func singleColumn(sig truthtable.Signature) (coeff uint64, tt uint64, ok bool) {
	for i, v := range sig.S {
		if v == 0 {
			continue
		}
		if coeff == 0 {
			coeff = v
		} else if v != coeff {
			return 0, 0, false
		}
		tt |= 1 << i
	}
	return coeff, tt, coeff != 0
}

// scaleExpr renders coeff·f with signed-coefficient conventions.
func scaleExpr(coeff uint64, f *expr.Expr, width uint) *expr.Expr {
	mask := eval.Mask(width)
	switch coeff & mask {
	case 1:
		return f
	case mask: // -1
		return expr.Neg(f)
	}
	if coeff>>(width-1)&1 == 1 {
		return expr.Neg(expr.Mul(expr.Const(-coeff&mask), f))
	}
	return expr.Mul(expr.Const(coeff&mask), f)
}

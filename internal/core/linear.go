package core

import (
	"math/bits"
	"slices"
	"strconv"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/linalg"
	"mbasolver/internal/poly"
	"mbasolver/internal/truthtable"
)

// polyOf expands e into a polynomial over conjunction atoms. Every
// bitwise-pure subtree is normalized through its signature vector
// (§4.2–§4.3) and contributes a linear polynomial over the basis; the
// arithmetic structure expands distributively (§4.4 ArithReduce).
// Subtrees that cannot be normalized (too many variables) become opaque
// atoms, which keeps the transformation semantics-preserving at the
// cost of less simplification. ok is false when a product would expand
// past maxExprNodes term pairs.
func (s *Simplifier) polyOf(e *expr.Expr) (p *poly.Poly, ok bool) {
	return poly.FromExprMax(e, s.opts.Width, s.leaf, maxExprNodes)
}

// leaf is polyOf's poly.Leaf for a variable or bitwise-rooted subtree.
func (s *Simplifier) leaf(e *expr.Expr, p *poly.Poly, k uint64) {
	if expr.IsBitwisePure(e) {
		var buf [truthtable.MaxVars]string
		if vars, ok := appendVars(buf[:0], e, truthtable.MaxVars); ok {
			s.addNormalized(e, vars, p, k)
			return
		}
		s.stats.Bailouts++
	}
	p.AddAtom(poly.CanonAtom(e), k)
}

// appendVars inserts e's variables into the sorted, distinct vars, or
// reports false once there would be more than max.
func appendVars(vars []string, e *expr.Expr, max int) ([]string, bool) {
	if e == nil {
		return vars, true
	}
	if e.Op == expr.OpVar {
		if i, found := slices.BinarySearch(vars, e.Name); !found {
			vars = slices.Insert(vars, i, e.Name)
		}
		return vars, len(vars) <= max
	}
	vars, ok := appendVars(vars, e.X, max)
	if ok {
		vars, ok = appendVars(vars, e.Y, max)
	}
	return vars, ok
}

// tableKey identifies a look-up table row: the number of variables and
// the signature vector, which for a bitwise-pure expression is its 0/1
// truth column.
type tableKey struct {
	vars int
	tt   uint64
}

// tableRow is a look-up table row: a signature's basis coefficients
// (c[S] multiplies the base of subset S, c[∅] the constant −1) and the
// basis they are over.
type tableRow struct {
	c     []uint64
	basis Basis
}

// addNormalized adds k times the normalized linear polynomial of a
// bitwise-pure expression to p: Σ c_S·base(vars, S) − c_∅, with the
// coefficients solved from the signature vector or taken from the
// look-up table, which is keyed by signature alone.
func (s *Simplifier) addNormalized(e *expr.Expr, vars []string, p *poly.Poly, k uint64) {
	key := tableKey{len(vars), truthtable.TruthColumn(e, vars)}
	s.stats.Signatures++
	row, ok := s.table[key]
	if ok {
		s.stats.TableHits++
	} else {
		s.stats.TableMisses++
		sig := make([]uint64, 1<<len(vars))
		for i := range sig {
			sig[i] = key.tt >> i & 1
		}
		row = s.coefficients(sig)
		if !s.opts.DisableTable {
			s.table[key] = row
		}
	}
	monos := s.basisMonomials(vars, row.basis)
	for sub := 1; sub < len(row.c); sub++ {
		if c := k * row.c[sub]; c&eval.Mask(s.opts.Width) != 0 {
			if monos[sub].Key() == "" {
				monos[sub] = poly.AtomMonomial(poly.CanonAtom(row.basis.join(vars, sub)))
			}
			p.AddMonomial(monos[sub], c)
		}
	}
	p.AddConst(-k * row.c[0])
}

// basisMonomials returns the cached monomials of the bases over vars,
// indexed by subset, each built on first use.
func (s *Simplifier) basisMonomials(vars []string, b Basis) []poly.Monomial {
	var buf [64]byte
	key := append(buf[:0], byte(b))
	for _, v := range vars {
		key = append(append(key, v...), 0)
	}
	monos, ok := s.bases[string(key)]
	if !ok {
		monos = make([]poly.Monomial, 1<<len(vars))
		s.bases[string(key)] = monos
	}
	return monos
}

// tempNames are the first abstraction temporaries _t0, _t1, ...,
// built once; tempName formats the later ones.
var tempNames = func() (names [32]string) {
	for i := range names {
		names[i] = tempPrefix + strconv.Itoa(i)
	}
	return names
}()

// tempName returns the i-th abstraction temporary.
func tempName(i int) string {
	if i < len(tempNames) {
		return tempNames[i]
	}
	return tempPrefix + strconv.Itoa(i)
}

// generate builds the normalized expression for a signature vector
// over the given variable names (paper §4.2–§4.3, GenerateMBA).
func (s *Simplifier) generate(sig []uint64, vars []string) *expr.Expr {
	row := s.coefficients(sig)
	return s.basisCombination(row.c, vars, row.basis)
}

// coefficients solves a signature vector over the simplifier's basis.
// The conjunction basis is solved with a Möbius transform. The
// disjunction basis (Table 9) is solved with Gaussian elimination over
// Z/2^n: column S is the indicator of assignments intersecting S (for
// |S| >= 1) and the all-ones column for S = ∅; it can be singular only
// through misuse, and then the always-solvable conjunction basis is
// used instead.
func (s *Simplifier) coefficients(sig []uint64) tableRow {
	n := len(sig)
	if s.opts.Basis == BasisDisjunction {
		m := linalg.NewMatrix(n, n, s.opts.Width)
		for a := 0; a < n; a++ {
			for sub := 0; sub < n; sub++ {
				if sub == 0 || a&sub != 0 {
					m.Set(a, sub, 1)
				}
			}
		}
		if c, err := m.Solve(sig); err == nil {
			return tableRow{c, BasisDisjunction}
		}
	}
	c := append([]uint64(nil), sig...)
	linalg.Moebius(c, s.opts.Width)
	return tableRow{c, BasisConjunction}
}

// basisCombination renders Σ c_S · base(S) + c_∅·(−1) as an expression
// with signed coefficients, subsets ordered by size (variables first,
// then pairs, ...) then index, for a stable, readable normalized form.
func (s *Simplifier) basisCombination(c []uint64, vars []string, basis Basis) *expr.Expr {
	mask := eval.Mask(s.opts.Width)
	var acc *expr.Expr
	add := func(coeff uint64, body *expr.Expr) {
		neg := coeff>>(s.opts.Width-1)&1 == 1
		mag := coeff
		if neg {
			mag = -coeff & mask
		}
		if body == nil { // constant contribution
			body = expr.Const(mag)
		} else if mag != 1 {
			body = expr.Mul(expr.Const(mag), body)
		}
		switch {
		case acc == nil && neg:
			acc = expr.Neg(body)
		case acc == nil:
			acc = body
		case neg:
			acc = expr.Sub(acc, body)
		default:
			acc = expr.Add(acc, body)
		}
	}
	for size := 1; size <= len(vars); size++ {
		for sub := 1; sub < len(c); sub++ {
			if bits.OnesCount(uint(sub)) == size && c[sub]&mask != 0 {
				add(c[sub]&mask, basis.join(vars, sub))
			}
		}
	}
	// c_∅ multiplies the constant −1: contribute the constant −c_∅.
	if k := -c[0] & mask; k != 0 {
		add(k, nil)
	}
	if acc == nil {
		return expr.Const(0)
	}
	return acc
}

// join renders the base of the basis for the variables selected by
// the subset bitmask: their conjunction, e.g. subset 0b101 over
// [x,y,z] -> x&z, or their disjunction.
func (b Basis) join(vars []string, subset int) *expr.Expr {
	op := expr.OpAnd
	if b == BasisDisjunction {
		op = expr.OpOr
	}
	var acc *expr.Expr
	for i, v := range vars {
		if subset&(1<<i) == 0 {
			continue
		}
		if acc == nil {
			acc = expr.Var(v)
		} else {
			acc = expr.Binary(op, acc, expr.Var(v))
		}
	}
	if acc == nil {
		panic("core: empty subset has no basis expression")
	}
	return acc
}

package core

import (
	"math/bits"
	"sort"
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
// cost of less simplification.
func (s *Simplifier) polyOf(e *expr.Expr) *poly.Poly {
	return poly.FromExpr(e, s.opts.Width, s.leafPoly)
}

// leafPoly is polyOf's polynomial for a variable or bitwise-rooted
// subtree.
func (s *Simplifier) leafPoly(e *expr.Expr) *poly.Poly {
	if expr.IsBitwisePure(e) {
		vars := sortedVarsOf(e)
		if len(vars) <= s.opts.MaxVars {
			return s.normalizeBitwise(e, vars)
		}
		s.stats.Bailouts++
	}
	return poly.FromAtom(poly.CanonAtom(e), s.opts.Width)
}

// normalizeBitwise returns the normalized linear polynomial of a
// bitwise-pure expression: coefficients over the conjunction (or
// disjunction) basis obtained from the signature vector.
func (s *Simplifier) normalizeBitwise(e *expr.Expr, vars []string) *poly.Poly {
	sig := truthtable.Compute(e, vars, s.opts.Width)
	s.stats.Signatures++

	if !s.opts.DisableTable {
		if cached, ok := s.table[sig.Key()]; ok {
			s.stats.TableHits++
			return s.polyFromNormalized(cached, vars)
		}
	}
	s.stats.TableMisses++

	normalized := s.generate(sig, placeholderVars(len(vars)))
	if !s.opts.DisableTable {
		s.table[sig.Key()] = normalized
	}
	return s.polyFromNormalized(normalized, vars)
}

// placeholderVars returns the canonical placeholder names _v0.._vn-1
// used to store look-up table entries independently of the caller's
// variable names.
func placeholderVars(n int) []string {
	v := make([]string, n)
	for i := range v {
		v[i] = placeholderNames.at(i)
	}
	return v
}

// polyFromNormalized converts a normalized expression over placeholder
// variables into a polynomial over the caller's variables. The
// normalized form is a linear combination of conjunction (or
// disjunction) atoms plus a constant, so plain expansion suffices.
func (s *Simplifier) polyFromNormalized(normalized *expr.Expr, vars []string) *poly.Poly {
	env := make(map[string]*expr.Expr, len(vars))
	for i, v := range vars {
		env[placeholderNames.at(i)] = expr.Var(v)
	}
	renamed := expr.SubstituteVars(normalized, env)
	return poly.FromExpr(renamed, s.opts.Width, poly.Atoms(s.opts.Width, poly.CanonAtom))
}

// indexedNames is a family of generated variable names, prefix
// followed by a decimal index, with the first few built once up front.
type indexedNames struct {
	prefix string
	first  []string
}

func newIndexedNames(prefix string, n int) indexedNames {
	first := make([]string, n)
	for i := range first {
		first[i] = prefix + strconv.Itoa(i)
	}
	return indexedNames{prefix: prefix, first: first}
}

// at returns the i-th name of the family.
func (f indexedNames) at(i int) string {
	if i < len(f.first) {
		return f.first[i]
	}
	return f.prefix + strconv.Itoa(i)
}

// placeholderNames are the look-up table's placeholders _v0, _v1, ...;
// tempNames the abstraction temporaries _t0, _t1, ....
var (
	placeholderNames = newIndexedNames("_v", 32)
	tempNames        = newIndexedNames(tempPrefix, 32)
)

// generate builds the normalized expression for a signature vector
// over the given variable names (paper §4.2–§4.3, GenerateMBA).
func (s *Simplifier) generate(sig truthtable.Signature, vars []string) *expr.Expr {
	switch s.opts.Basis {
	case BasisDisjunction:
		if e, err := s.generateDisjunction(sig, vars); err == nil {
			return e
		}
		// The disjunction system can be singular only through misuse;
		// fall back to the always-solvable conjunction basis.
		fallthrough
	default:
		return s.generateConjunction(sig, vars)
	}
}

// generateConjunction solves the conjunction-basis system with a
// Möbius transform: coefficient c_S for the conjunction of subset S,
// with c_∅ multiplying the all-ones constant −1.
func (s *Simplifier) generateConjunction(sig truthtable.Signature, vars []string) *expr.Expr {
	c := append([]uint64(nil), sig.S...)
	linalg.Moebius(c, sig.Width)
	return s.basisCombination(c, vars, conjunctionOf)
}

// generateDisjunction solves the disjunction-basis system (Table 9)
// with Gaussian elimination over Z/2^n: column S is the indicator of
// assignments intersecting S (for |S| >= 1) and the all-ones column for
// S = ∅.
func (s *Simplifier) generateDisjunction(sig truthtable.Signature, vars []string) (*expr.Expr, error) {
	n := len(sig.S)
	m := linalg.NewMatrix(n, n, sig.Width)
	for a := 0; a < n; a++ {
		for sub := 0; sub < n; sub++ {
			switch {
			case sub == 0: // the -1 column
				m.Set(a, sub, 1)
			case a&sub != 0: // assignment a intersects subset sub
				m.Set(a, sub, 1)
			}
		}
	}
	c, err := m.Solve(sig.S)
	if err != nil {
		return nil, err
	}
	return s.basisCombination(c, vars, disjunctionOf), nil
}

// basisCombination renders Σ c_S · base(S) + c_∅·(−1) as an expression
// with signed coefficients, subsets ordered by size then index.
func (s *Simplifier) basisCombination(c []uint64, vars []string, base func([]string, int) *expr.Expr) *expr.Expr {
	mask := eval.Mask(s.opts.Width)
	type entry struct {
		subset int
		coeff  uint64
	}
	var entries []entry
	for sub := 1; sub < len(c); sub++ {
		if c[sub]&mask != 0 {
			entries = append(entries, entry{sub, c[sub] & mask})
		}
	}
	// Order by popcount (variables first, then pairs, ...), then by
	// subset index, for a stable, readable normalized form.
	sort.Slice(entries, func(i, j int) bool {
		pi, pj := bits.OnesCount(uint(entries[i].subset)), bits.OnesCount(uint(entries[j].subset))
		if pi != pj {
			return pi < pj
		}
		return entries[i].subset < entries[j].subset
	})

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
	for _, en := range entries {
		add(en.coeff, base(vars, en.subset))
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

// conjunctionOf renders the conjunction of the variables selected by
// the subset bitmask, e.g. subset 0b101 over [x,y,z] -> x&z.
func conjunctionOf(vars []string, subset int) *expr.Expr {
	return joinVars(vars, subset, expr.OpAnd)
}

// disjunctionOf renders the disjunction of the selected variables.
func disjunctionOf(vars []string, subset int) *expr.Expr {
	return joinVars(vars, subset, expr.OpOr)
}

func joinVars(vars []string, subset int, op expr.Op) *expr.Expr {
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

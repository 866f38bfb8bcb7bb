// Package truthtable implements the signature-vector machinery of the
// paper (§4.1–§4.3) together with boolean-function truth tables and
// minimal bitwise-expression synthesis.
//
// For a linear MBA expression E over variables x₁…x_t, the paper
// defines the signature vector s = M·v, where M is the 2^t×k truth
// table of E's bitwise expressions and v its coefficient vector
// (Definition 3). Two linear MBA expressions over Z/2^n are equal iff
// their signature vectors are equal mod 2^n (Theorem 1).
//
// This package computes s without decomposing E into terms: on the
// assignment A ∈ {0,1}^t, evaluating E with each variable set to 0 or
// to the all-ones word (-1) makes every bitwise sub-expression evaluate
// to 0 or -1 — exactly -(its truth-table entry) — so the full-width
// evaluation equals -(M·v)[A], and s[A] = -Eval(E, xᵢ ↦ -Aᵢ) mod 2^n.
package truthtable

import (
	"fmt"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
)

// MaxVars bounds the number of variables a signature vector may range
// over; 2^MaxVars entries are computed per signature.
const MaxVars = 6

// Signature is the signature vector of a linear MBA expression: entry
// i corresponds to the variable assignment whose bit j (in the order of
// the Vars slice) is bit j of i — Vars[0] is the LOW bit, so for
// (x, y) the rows run 00, 10, 01, 11. (The paper prints the same
// columns with x as the high bit; the conventions are isomorphic and
// this one is used consistently across Compute, TruthColumn and the
// subset indexing of the Möbius transform.) Entries are reduced mod
// 2^Width.
type Signature struct {
	Vars  []string // variable order, sorted
	Width uint     // bit width n of the ring Z/2^n
	S     []uint64 // 2^len(Vars) entries, each mod 2^Width
}

// Compute returns the signature vector of e over the given variable
// order at the given width. The expression need not be linear; for a
// non-linear expression the result is still well defined (it is the
// vector of evaluations on 0/-1 inputs) but Theorem 1's "iff" holds
// only for linear MBA.
func Compute(e *expr.Expr, vars []string, width uint) Signature {
	if len(vars) > MaxVars {
		panic(fmt.Sprintf("truthtable: %d variables exceeds MaxVars=%d", len(vars), MaxVars))
	}
	m := eval.Mask(width)
	n := 1 << len(vars)
	s := make([]uint64, n)
	env := make(eval.Env, len(vars))
	for a := 0; a < n; a++ {
		for j, v := range vars {
			if a&(1<<j) != 0 {
				env[v] = m // all-ones = -1
			} else {
				env[v] = 0
			}
		}
		s[a] = -eval.Eval(e, env, width) & m
	}
	return Signature{Vars: append([]string(nil), vars...), Width: width, S: s}
}

// Equal reports whether two signatures are identical (same variable
// order, width and entries).
func (s Signature) Equal(o Signature) bool {
	if s.Width != o.Width || len(s.Vars) != len(o.Vars) || len(s.S) != len(o.S) {
		return false
	}
	for i := range s.Vars {
		if s.Vars[i] != o.Vars[i] {
			return false
		}
	}
	for i := range s.S {
		if s.S[i] != o.S[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every signature entry is zero, i.e. whether a
// linear MBA with this signature is identically 0 over Z/2^n.
func (s Signature) IsZero() bool {
	for _, v := range s.S {
		if v != 0 {
			return false
		}
	}
	return true
}

// TruthColumn returns the truth table of a bitwise-pure expression as a
// bitmask: bit a is the value of the expression on assignment a (in the
// order of vars). It evaluates e once over all assignments together:
// variable j is the word whose bit a is bit j of a. It panics if e is
// not bitwise-pure.
func TruthColumn(e *expr.Expr, vars []string) uint64 {
	if !expr.IsBitwisePure(e) {
		panic("truthtable: TruthColumn requires a bitwise-pure expression")
	}
	if len(vars) > MaxVars {
		panic("truthtable: too many variables")
	}
	return column(e, vars) & ttMask(len(vars))
}

// varColumns[j] is variable j's truth column: bit a is bit j of a.
var varColumns = [MaxVars]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// column evaluates a bitwise-pure e on the variables' truth columns; a
// variable missing from vars is 0 on every assignment.
func column(e *expr.Expr, vars []string) uint64 {
	switch e.Op {
	case expr.OpVar:
		for j, v := range vars {
			if v == e.Name {
				return varColumns[j]
			}
		}
		return 0
	case expr.OpNot:
		return ^column(e.X, vars)
	case expr.OpAnd:
		return column(e.X, vars) & column(e.Y, vars)
	case expr.OpOr:
		return column(e.X, vars) | column(e.Y, vars)
	default: // expr.OpXor
		return column(e.X, vars) ^ column(e.Y, vars)
	}
}

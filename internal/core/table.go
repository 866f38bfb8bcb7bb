package core

import (
	"fmt"
	"slices"
	"strings"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
)

// TableEntry is one row of the pre-computed simplification table
// (paper Table 5): a signature vector over {0,1} entries and the
// normalized MBA expression generated from it.
type TableEntry struct {
	Signature []uint64
	Expr      *expr.Expr
	// Base marks the rows whose signature is a basis column
	// (variables, conjunctions, the all-ones vector).
	Base bool
}

// LookupTable enumerates the full pre-computed simplification table
// for t variables (paper §4.4): every 0/1 signature vector of length
// 2^t together with its normalized expression over the given variable
// names. For t=2 and vars={x,y} this reproduces the paper's Table 5
// row for row. t must be 1..4 (the table has 2^2^t rows).
func LookupTable(vars []string, width uint) []TableEntry {
	t := len(vars)
	if t < 1 || t > 4 {
		panic(fmt.Sprintf("core: LookupTable wants 1..4 variables, got %d", t))
	}
	s := New(Options{Width: width})
	n := 1 << t
	rows := make([]TableEntry, 0, 1<<n)
	for bits := 0; bits < 1<<n; bits++ {
		sig := make([]uint64, n)
		for i := 0; i < n; i++ {
			sig[i] = uint64(bits >> i & 1)
		}
		rows = append(rows, TableEntry{Signature: sig, Expr: s.generate(sig, vars), Base: isBasisColumn(sig)})
	}
	return rows
}

// isBasisColumn reports whether the 0/1 signature is one of the
// conjunction-basis columns: the all-ones vector or the indicator of a
// nonempty subset's superset rows. A subset-S column has 1 exactly at
// the indices containing S, the smallest of which is S itself; the
// all-ones vector is the same pattern for S = ∅.
func isBasisColumn(sig []uint64) bool {
	first := slices.Index(sig, 1)
	if first < 0 {
		return false
	}
	for i, v := range sig {
		if (v == 1) != (i&first == first) {
			return false
		}
	}
	return true
}

// FormatTable renders a lookup table in the paper's Table 5 layout.
func FormatTable(rows []TableEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-24s %s\n", "Type", "Signature Vector", "MBA Expression")
	fmt.Fprintln(&b, strings.Repeat("-", 64))
	emit := func(base bool) {
		for _, r := range rows {
			if r.Base != base {
				continue
			}
			kind := "Derivative"
			if base {
				kind = "Base"
			}
			sig := make([]string, len(r.Signature))
			for i, v := range r.Signature {
				sig[i] = fmt.Sprintf("%d", v)
			}
			fmt.Fprintf(&b, "%-12s (%s)%s %s\n", kind, strings.Join(sig, ","),
				strings.Repeat(" ", max(0, 22-2*len(sig))), r.Expr)
		}
	}
	emit(true)
	emit(false)
	return b.String()
}

// GenerateFromSignature builds the normalized MBA expression for an
// arbitrary signature vector (entries mod 2^width, length 2^len(vars)),
// exposed for tooling and tests.
func GenerateFromSignature(sig []uint64, vars []string, width uint, basis Basis) *expr.Expr {
	if len(sig) != 1<<len(vars) {
		panic(fmt.Sprintf("core: signature length %d != 2^%d", len(sig), len(vars)))
	}
	s := New(Options{Width: width, Basis: basis})
	masked := make([]uint64, len(sig))
	for i, v := range sig {
		masked[i] = v & eval.Mask(width)
	}
	return s.generate(masked, vars)
}

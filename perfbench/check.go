package main

import (
	"mbasolver/internal/bv"
	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/smt"
)

// The known-answer gate. Every input the benchmark generates has an
// answer known by construction: identities are equal, mutants differ
// by one everywhere. The reference for expression values is the tree
// interpreter eval.Eval, not the bitslice engine under test.

// identityOK reports whether a verdict on a true identity is
// acceptable: never not-equivalent, and an undecided query may only
// have run out of its conflict budget.
func identityOK(status smt.Status, reason string) bool {
	switch status {
	case smt.Equivalent:
		return true
	case smt.NotEquivalent:
		return false
	}
	return reason == smt.ReasonBudget.String()
}

// mutantOK reports whether a verdict on a mutant (a differs from b) is
// not-equivalent with a witness that replays under bv.Eval.
func mutantOK(status smt.Status, witness map[string]uint64, a, b *expr.Expr, width uint) bool {
	if status != smt.NotEquivalent || witness == nil {
		return false
	}
	return bv.Eval(bv.FromExpr(a, width), witness) != bv.Eval(bv.FromExpr(b, width), witness)
}

// checkBlock is the fixed block of points simplification results are
// checked on: 64 assignments drawn from a fixed splitmix64 stream.
var checkBlock = func() []eval.Env {
	state := uint64(0x5eed)
	vars := []string{"x", "y", "z", "w", "a", "b", "c", "d"}
	block := make([]eval.Env, 64)
	for i := range block {
		env := eval.Env{}
		for _, v := range vars {
			env[v] = splitmix(&state)
		}
		block[i] = env
	}
	return block
}()

// agree reports whether a and b take the same value on every point of
// the check block at the given width. Variables outside the block's
// names evaluate as zero in both.
func agree(a, b *expr.Expr, width uint) bool {
	for _, env := range checkBlock {
		if eval.Eval(a, env, width) != eval.Eval(b, env, width) {
			return false
		}
	}
	return true
}

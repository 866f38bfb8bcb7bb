package smt

import (
	"testing"

	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
)

// fuzzBudget bounds each check of FuzzCheckEquiv by conflicts alone, so
// a verdict never depends on host load. Undecided checks are skipped.
// The pre-solve screen is off, so NotEquivalent verdicts come from
// rewriting or the SAT model rather than from screen samples; one more
// fresh check per input runs with the screen on.
var fuzzBudget = Budget{Conflicts: 20_000, NoScreen: true}

// maxFuzzNodes bounds the size of each side a fuzz input may have.
const maxFuzzNodes = 64

// maxTruthBits is the most input bits (variables × width) for which
// FuzzCheckEquiv decides the pair itself by evaluating every input.
const maxTruthBits = 12

// FuzzCheckEquiv checks the equivalence verdicts of every personality
// at widths 1 to 8 (1 + width%8):
//
//   - a pair equal on every input is never NotEquivalent, and an
//     Equivalent pair is equal on every input (exhaustively when the
//     variables span at most maxTruthBits bits, else on 256 sampled
//     inputs);
//   - every NotEquivalent witness assigns every variable and, evaluated
//     again, tells the sides apart;
//   - the fresh back end, a warm Context kept across inputs and the
//     screened fresh back end never disagree on a definitive verdict.
//
// It is seeded with generated identities and their single-operator
// mutants; testdata/fuzz/FuzzCheckEquiv holds the committed seed
// corpus.
func FuzzCheckEquiv(f *testing.F) {
	g := gen.New(gen.Config{Seed: 27, Width: 8, LinearTerms: 4, CoeffRange: 3, NonPolyRewrites: 3})
	for _, s := range g.Corpus(2) {
		a, b := s.Equation()
		// The widest width whose inputs exhaustiveEqual can cover.
		w := uint8(min(8, maxTruthBits/max(1, len(expr.Vars(a)))) - 1)
		f.Add(a.String(), b.String(), w)
		for _, m := range mutants(a, 2) {
			f.Add(m.String(), b.String(), w)
		}
	}
	solvers := All()
	ctxs := make([]*Context, len(solvers))
	for i, s := range solvers {
		ctxs[i] = s.NewContext()
	}
	f.Fuzz(func(t *testing.T, srcA, srcB string, w uint8) {
		a, errA := parser.Parse(srcA)
		b, errB := parser.Parse(srcB)
		if errA != nil || errB != nil || a.Size() > maxFuzzNodes || b.Size() > maxFuzzNodes {
			return
		}
		width := 1 + uint(w%8)
		vars := expr.Vars(expr.Sub(a, b))
		identity, decided := exhaustiveEqual(a, b, vars, width)
		for i, s := range solvers {
			screened := fuzzBudget
			screened.NoScreen = false
			runs := []struct {
				backEnd string
				res     Result
			}{
				{"fresh", s.CheckEquiv(a, b, width, fuzzBudget)},
				{"warm", ctxs[i].CheckEquiv(a, b, width, fuzzBudget)},
				{"screened", s.CheckEquiv(a, b, width, screened)},
			}
			definitive := Unknown
			for _, r := range runs {
				label := s.Name() + " " + r.backEnd
				switch r.res.Status {
				case NotEquivalent:
					if decided && identity {
						t.Fatalf("%s: %s = %s at width %d is an identity, got not-equivalent", label, a, b, width)
					}
					checkFuzzWitness(t, label, a, b, vars, width, r.res.Witness)
				case Equivalent:
					if decided && !identity {
						t.Fatalf("%s: %s = %s at width %d is not an identity, got equivalent", label, a, b, width)
					}
					if !decided {
						checkSampledEqual(t, label, a, b, vars, width)
					}
				}
				if r.res.Status == Unknown {
					continue
				}
				if definitive != Unknown && r.res.Status != definitive {
					t.Fatalf("%s: %s = %s at width %d: %v, but %v before", label, a, b, width, r.res.Status, definitive)
				}
				definitive = r.res.Status
			}
		}
	})
}

// mutantOp is the operator a single-operator mutant puts in place of
// each binary operator.
var mutantOp = map[expr.Op]expr.Op{
	expr.OpAnd: expr.OpOr, expr.OpOr: expr.OpXor, expr.OpXor: expr.OpAnd,
	expr.OpAdd: expr.OpSub, expr.OpSub: expr.OpAdd, expr.OpMul: expr.OpAdd,
}

// mutants returns up to n copies of e, the k-th with its k-th binary
// operator (in pre-order) swapped by mutantOp.
func mutants(e *expr.Expr, n int) []*expr.Expr {
	var out []*expr.Expr
	for k := 0; k < n; k++ {
		left := k
		m := mutateAt(e, &left)
		if left >= 0 {
			break // e has at most k binary operators
		}
		out = append(out, m)
	}
	return out
}

// mutateAt swaps the binary operator *k nodes ahead in pre-order,
// counting *k down past every binary node it visits.
func mutateAt(e *expr.Expr, k *int) *expr.Expr {
	switch {
	case e.Op.IsLeaf():
		return e
	case e.Op.IsUnary():
		return expr.Unary(e.Op, mutateAt(e.X, k))
	}
	op := e.Op
	if *k == 0 {
		op = mutantOp[op]
	}
	*k--
	x := mutateAt(e.X, k)
	return expr.Binary(op, x, mutateAt(e.Y, k))
}

// exhaustiveEqual evaluates a and b on every input at the given width.
// decided is false when the variables span more than maxTruthBits bits.
func exhaustiveEqual(a, b *expr.Expr, vars []string, width uint) (equal, decided bool) {
	bits := width * uint(len(vars))
	if bits > maxTruthBits {
		return false, false
	}
	env := eval.Env{}
	for in := uint64(0); in < 1<<bits; in++ {
		for i, v := range vars {
			env[v] = in >> (width * uint(i)) & eval.Mask(width)
		}
		if eval.Eval(a, env, width) != eval.Eval(b, env, width) {
			return false, true
		}
	}
	return true, true
}

// checkSampledEqual fails if a and b differ on one of 256 inputs drawn
// from a fixed splitmix64 stream.
func checkSampledEqual(t *testing.T, label string, a, b *expr.Expr, vars []string, width uint) {
	t.Helper()
	seed := uint64(0x9e3779b97f4a7c15)
	env := eval.Env{}
	for n := 0; n < 256; n++ {
		for _, v := range vars {
			seed += 0x9e3779b97f4a7c15
			z := (seed ^ seed>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			env[v] = (z ^ z>>31) & eval.Mask(width)
		}
		if eval.Eval(a, env, width) != eval.Eval(b, env, width) {
			t.Fatalf("%s: %s = %s at width %d got equivalent, but they differ on %v", label, a, b, width, env)
		}
	}
}

// checkFuzzWitness fails unless w assigns every variable and tells a
// and b apart.
func checkFuzzWitness(t *testing.T, label string, a, b *expr.Expr, vars []string, width uint, w map[string]uint64) {
	t.Helper()
	env := eval.Env{}
	for _, v := range vars {
		val, ok := w[v]
		if !ok {
			t.Fatalf("%s: %s = %s at width %d: witness %v misses %s", label, a, b, width, w, v)
		}
		env[v] = val
	}
	if eval.Eval(a, env, width) == eval.Eval(b, env, width) {
		t.Fatalf("%s: %s = %s at width %d: witness %v does not tell the sides apart", label, a, b, width, w)
	}
}

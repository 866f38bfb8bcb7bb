package core

import (
	"strings"
	"testing"

	"mbasolver/internal/eval"
	"mbasolver/internal/eval/bitslice"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
)

// FuzzSimplify checks that Simplify at width 64 preserves semantics on
// every expression the parser accepts: exhaustively at width 4 when
// the input has at most 3 variables, and on random 64-lane bitsliced
// blocks at width 64 always. It is seeded from the golden corpus;
// testdata/fuzz/FuzzSimplify holds the committed seed corpus.
func FuzzSimplify(f *testing.F) {
	for _, width := range []uint{8, 64} {
		for _, smp := range gen.New(gen.Config{Seed: 20, Width: width, CoeffRange: 300}).Corpus(40) {
			f.Add(smp.Obfuscated.String())
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		in, err := parser.Parse(src)
		if err != nil || in.Size() > maxExprNodes {
			return
		}
		vars := expr.Vars(in)
		for _, v := range vars {
			if strings.HasPrefix(v, tempPrefix) {
				return // reserved for abstraction temporaries
			}
		}
		out := Default().Simplify(in)
		if len(vars) <= 3 {
			checkExhaustive(t, in, out, vars, 4)
		}
		checkBitsliced(t, in, out, vars, src)
	})
}

// checkExhaustive compares in and out on every assignment of vars at
// the given width.
func checkExhaustive(t *testing.T, in, out *expr.Expr, vars []string, width uint) {
	t.Helper()
	env := eval.Env{}
	for a := uint64(0); a < 1<<(width*uint(len(vars))); a++ {
		for i, v := range vars {
			env[v] = a >> (width * uint(i)) & eval.Mask(width)
		}
		if got, want := eval.Eval(out, env, width), eval.Eval(in, env, width); got != want {
			t.Fatalf("Simplify(%s) = %s: %d, want %d at width %d on %v", in, out, got, want, width, env)
		}
	}
}

// checkBitsliced compares in and out at width 64 on 4 blocks of 64
// lanes each, drawn from a splitmix64 stream seeded by the input text.
func checkBitsliced(t *testing.T, in, out *expr.Expr, vars []string, src string) {
	t.Helper()
	pin, err := bitslice.Compile(in, 64)
	if err != nil {
		t.Fatal(err)
	}
	pout, err := bitslice.Compile(out, 64)
	if err != nil {
		t.Fatal(err)
	}
	evIn, evOut := bitslice.NewEvaluator(pin), bitslice.NewEvaluator(pout)
	seed := uint64(len(src))
	for _, c := range []byte(src) {
		seed = seed*31 + uint64(c)
	}
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	var want, got []uint64
	for b := 0; b < 4; b++ {
		blk := bitslice.NewBlock(64, 64)
		for lane := 0; lane < 64; lane++ {
			for _, v := range vars {
				blk.Set(v, lane, next())
			}
		}
		want, got = evIn.EvalBlock(blk, want[:0]), evOut.EvalBlock(blk, got[:0])
		for lane := range want {
			if got[lane] != want[lane] {
				t.Fatalf("Simplify(%s) = %s: %d, want %d at width 64 on %v", in, out, got[lane], want[lane], blk.Env(vars, lane))
			}
		}
	}
}

package smt

import (
	"testing"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/eval"
	"mbasolver/internal/parser"
)

// TestCornerProbesDistinguishSymmetricPairs is the regression test
// for the witness prober's corner phase: the old prober assigned the
// same constant to every variable, so symmetric disequalities like x
// vs y could never be distinguished by a corner probe (every uniform
// assignment satisfies x == y by construction). With zero random
// blocks the corners must now do it alone.
func TestCornerProbesDistinguishSymmetricPairs(t *testing.T) {
	pairs := [][2]string{
		{"x", "y"},
		{"x&y", "x|y"},
		{"x-y", "y-x"}, // equivalent at width 1 (x-y mod 2 is xor), distinct above
	}
	for _, width := range []uint{1, 8, 64} {
		for _, p := range pairs {
			if width == 1 && p[0] == "x-y" {
				continue
			}
			ta := bv.FromExpr(parser.MustParse(p[0]), width)
			tb := bv.FromExpr(parser.MustParse(p[1]), width)
			w, ok := probeDistinguish(ta, tb, 0, Budget{}, time.Time{})
			if !ok {
				t.Errorf("width %d: corners alone found no witness for %q vs %q", width, p[0], p[1])
				continue
			}
			if bv.Eval(ta, w) == bv.Eval(tb, w) {
				t.Errorf("width %d: witness %v does not distinguish %q vs %q", width, w, p[0], p[1])
			}
		}
	}
}

// TestWitnessOnSymmetricDisequality pins the full solve path for a
// rewriter-refutable symmetric pair: the verdict must be
// NotEquivalent with a concrete distinguishing witness, screen on or
// off.
func TestWitnessOnSymmetricDisequality(t *testing.T) {
	a, b := parser.MustParse("x"), parser.MustParse("y")
	for _, noScreen := range []bool{false, true} {
		res := NewBoolectorSim().CheckEquiv(a, b, 8, Budget{Timeout: 30 * time.Second, NoScreen: noScreen})
		if res.Status != NotEquivalent {
			t.Fatalf("x vs y (NoScreen=%v) -> %v, want not-equivalent", noScreen, res.Status)
		}
		if res.Witness == nil {
			t.Fatalf("x vs y (NoScreen=%v): nil witness", noScreen)
		}
		env := eval.Env{}
		for k, v := range res.Witness {
			env[k] = v
		}
		if eval.Eval(a, env, 8) == eval.Eval(b, env, 8) {
			t.Fatalf("x vs y (NoScreen=%v): witness %v does not distinguish", noScreen, res.Witness)
		}
	}
}

// TestScreenRefutesWithVerifiedWitness: the screen decides plain
// non-identities without SAT work, marks them Screened, and always
// attaches a witness that replays.
func TestScreenRefutesWithVerifiedWitness(t *testing.T) {
	pairs := [][2]string{
		{"x+1", "x"},
		{"x+y", "x-y"},
		{"2*x", "x+x+1"},
	}
	for _, s := range All() {
		for _, p := range pairs {
			a, b := parser.MustParse(p[0]), parser.MustParse(p[1])
			res := s.CheckEquiv(a, b, 32, Budget{})
			if res.Status != NotEquivalent {
				t.Errorf("%s: %q vs %q -> %v, want not-equivalent", s.Name(), p[0], p[1], res.Status)
				continue
			}
			if !res.Screened {
				t.Errorf("%s: %q vs %q not decided by the screen", s.Name(), p[0], p[1])
			}
			if res.Conflicts != 0 {
				t.Errorf("%s: screened %q vs %q spent %d conflicts", s.Name(), p[0], p[1], res.Conflicts)
			}
			env := eval.Env{}
			for k, v := range res.Witness {
				env[k] = v
			}
			if eval.Eval(a, env, 32) == eval.Eval(b, env, 32) {
				t.Errorf("%s: witness %v does not distinguish %q vs %q", s.Name(), res.Witness, p[0], p[1])
			}
		}
	}
}

// TestScreenVarFreeWitness: a variable-free disequality screened away
// must carry the empty (non-nil) assignment as its witness, matching
// the findWitness contract.
func TestScreenVarFreeWitness(t *testing.T) {
	res := NewZ3Sim().CheckEquiv(parser.MustParse("3"), parser.MustParse("5"), 8, Budget{})
	if res.Status != NotEquivalent {
		t.Fatalf("3 vs 5 -> %v, want not-equivalent", res.Status)
	}
	if res.Witness == nil {
		t.Fatal("3 vs 5: nil witness, want the empty assignment")
	}
}

// TestScreenHonorsBudget: a pre-raised stop flag or an expired
// deadline stops the probe without a verdict.
func TestScreenHonorsBudget(t *testing.T) {
	ta := bv.FromExpr(parser.MustParse("x+1"), 64)
	tb := bv.FromExpr(parser.MustParse("x"), 64)
	if _, ok := probeDistinguish(ta, tb, 4, Budget{Stop: raisedStop()}, time.Time{}); ok {
		t.Error("probe with pre-raised stop still returned a witness")
	}
	past := time.Now().Add(-time.Second)
	if _, ok := probeDistinguish(ta, tb, 4, Budget{}, past); ok {
		t.Error("probe past its deadline still returned a witness")
	}
}

// TestScreenNeverFlipsVerdicts is the acceptance differential for the
// pre-solve screen: across the known-answer corpus, every personality
// and both execution modes (fresh solver and warm context), the
// verdict with the screen on must equal the verdict with the screen
// off. The screen may only ever turn a slow NotEquivalent into a fast
// one.
func TestScreenNeverFlipsVerdicts(t *testing.T) {
	pairs := diffCorpus(t)
	budget := diffBudget
	off := budget
	off.NoScreen = true
	const width = 8
	for _, s := range All() {
		ctx := s.NewContext(ContextOptions{})
		ctxOff := s.NewContext(ContextOptions{})
		for i, p := range pairs {
			fresh := s.CheckEquiv(p[0], p[1], width, budget)
			freshOff := s.CheckEquiv(p[0], p[1], width, off)
			if fresh.Status != freshOff.Status {
				t.Errorf("%s pair %d fresh: screen=%v no-screen=%v", s.Name(), i, fresh.Status, freshOff.Status)
			}
			inc := ctx.CheckEquiv(p[0], p[1], width, budget)
			incOff := ctxOff.CheckEquiv(p[0], p[1], width, off)
			if inc.Status != incOff.Status {
				t.Errorf("%s pair %d context: screen=%v no-screen=%v", s.Name(), i, inc.Status, incOff.Status)
			}
			if fresh.Status != inc.Status {
				t.Errorf("%s pair %d: fresh=%v context=%v with screen on", s.Name(), i, fresh.Status, inc.Status)
			}
			// Screened verdicts must carry a replayable witness.
			for _, r := range []Result{fresh, inc} {
				if r.Screened {
					if r.Status != NotEquivalent {
						t.Errorf("%s pair %d: Screened set on %v", s.Name(), i, r.Status)
					}
					env := eval.Env{}
					for k, v := range r.Witness {
						env[k] = v
					}
					if eval.Eval(p[0], env, width) == eval.Eval(p[1], env, width) {
						t.Errorf("%s pair %d: screened witness %v does not distinguish", s.Name(), i, r.Witness)
					}
				}
			}
		}
	}
}

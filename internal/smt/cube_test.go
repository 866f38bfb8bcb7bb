package smt

import (
	"sync/atomic"
	"testing"
	"time"

	"mbasolver/internal/bitblast"
	"mbasolver/internal/bv"
	"mbasolver/internal/eval"
	"mbasolver/internal/parser"
)

// cubeKnownPairs is a small known-answer corpus spanning all verdict
// shapes: MBA identities (equivalent), near-identities (refuted), and
// a multiplier identity hard enough to exercise the SAT phase.
var cubeKnownPairs = []struct {
	a, b  string
	equiv bool
}{
	{"x+y", "(x|y)+y-(~x&y)", true},
	{"x+y", "(x^y)+2*y-2*(~x&y)", true},
	{"x^y", "(x|y)-(x&y)", true},
	{"x*y", "(x&~y)*(~x&y) + (x&y)*(x|y)", true},
	{"x+y", "x-y", false},
	{"x&y", "x|y", false},
	{"~x", "-x", false},
}

// cooperativeBudget is the conflict-only budget of the sharing and
// cube differentials on cubeKnownPairs (TestCubeMatchesSolo,
// TestShareAcrossPersonalities, TestShareVerdictsUnchanged). Without a
// wall clock their verdicts do not depend on host load or the race
// detector's slowdown. In five plain runs the most any engine spent
// on one of their queries was 73,586 conflicts with sharing, and a
// cube query's screen plus all its cubes took at most 175,216
// together. Without sharing, z3sim needs 97,220 on the x*y identity
// (btorsim's 123,170 meet a budget its speed scales 4×). The speeds
// only scale a conflict budget up, so 500,000 leaves a margin of at
// least 2.8×.
var cooperativeBudget = Budget{Conflicts: 500_000}

// TestCubeMatchesSolo: cube-and-conquer must return the same verdicts
// as the one-shot path on the known-answer corpus, for every
// personality, with sharing among cube workers both off and on.
func TestCubeMatchesSolo(t *testing.T) {
	for _, shareCap := range []int{0, 128} {
		for _, s := range All() {
			for _, p := range cubeKnownPairs {
				ta := bv.FromExpr(parser.MustParse(p.a), 8)
				tb := bv.FromExpr(parser.MustParse(p.b), 8)
				opts := CubeOptions{Vars: 2, ScreenConflicts: 20, Workers: 2, ShareCapacity: shareCap}
				res := s.CheckTermEquivCube(ta, tb, cooperativeBudget, opts)
				want := NotEquivalent
				if p.equiv {
					want = Equivalent
				}
				if res.Status != want {
					t.Errorf("share=%d %s: cube(%q, %q) = %v, want %v",
						shareCap, s.Name(), p.a, p.b, res.Status, want)
					continue
				}
				if res.Status == NotEquivalent {
					env := eval.Env{}
					for k, v := range res.Witness {
						env[k] = v
					}
					a, b := parser.MustParse(p.a), parser.MustParse(p.b)
					if eval.Eval(a, env, 8) == eval.Eval(b, env, 8) {
						t.Errorf("share=%d %s: cube witness %v does not distinguish %q and %q",
							shareCap, s.Name(), res.Witness, p.a, p.b)
					}
				}
			}
		}
	}
}

// TestCubeScreenDecidesEasyQueries: a query the screen solves never
// pays for cubing (the screen's verdict is returned directly).
func TestCubeScreenDecidesEasyQueries(t *testing.T) {
	s := NewZ3Sim()
	ta := bv.FromExpr(parser.MustParse("x"), 8)
	tb := bv.FromExpr(parser.MustParse("y"), 8)
	res := s.CheckTermEquivCube(ta, tb, Budget{Timeout: 30 * time.Second}, CubeOptions{})
	if res.Status != NotEquivalent {
		t.Fatalf("cube(x, y) = %v, want not-equivalent from the screen", res.Status)
	}
}

// TestCubeBudgetExhaustionMergesReason: when every cube runs out of
// conflicts the merged verdict is Unknown with ReasonBudget.
func TestCubeBudgetExhaustionMergesReason(t *testing.T) {
	s := NewZ3Sim()
	ta := bv.FromExpr(parser.MustParse("x*y"), 16)
	tb := bv.FromExpr(parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)"), 16)
	res := s.CheckTermEquivCube(ta, tb, Budget{Conflicts: 40}, CubeOptions{Vars: 2, ScreenConflicts: 10, Workers: 2})
	if res.Status != Unknown {
		t.Fatalf("hard query with 40-conflict budget = %v, want unknown", res.Status)
	}
	if res.Reason != ReasonBudget {
		t.Fatalf("merged reason = %v, want ReasonBudget", res.Reason)
	}
}

// TestCubeExternalCancel: a raised stop flag cancels the cube race
// promptly with Unknown(ReasonBudget).
func TestCubeExternalCancel(t *testing.T) {
	s := NewZ3Sim()
	ta := bv.FromExpr(parser.MustParse("x*y"), 16)
	tb := bv.FromExpr(parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)"), 16)
	var stop atomic.Bool
	go func() {
		time.Sleep(50 * time.Millisecond)
		stop.Store(true)
	}()
	start := time.Now()
	res := s.CheckTermEquivCube(ta, tb, Budget{Stop: &stop}, CubeOptions{Vars: 3, ScreenConflicts: 100, Workers: 2})
	if res.Status != Unknown || res.Reason != ReasonBudget {
		t.Fatalf("cancelled cube = %v/%v, want unknown/budget", res.Status, res.Reason)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestShareAcrossPersonalities: two one-shot solvers racing the same
// query over a sharing pool must both stay sound, and the pool must
// actually carry traffic on a conflict-heavy query.
func TestShareAcrossPersonalities(t *testing.T) {
	ta := bv.FromExpr(parser.MustParse("x*y"), 8)
	tb := bv.FromExpr(parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)"), 8)
	pool := bitblast.NewPool(2)

	type out struct{ res Result }
	ch := make(chan out, 2)
	solvers := []*Solver{NewZ3Sim(), NewSTPSim()}
	for i, s := range solvers {
		go func(i int, s *Solver) {
			b := cooperativeBudget
			b.Share = pool.Endpoint(i)
			ch <- out{s.CheckTermEquiv(ta, tb, b)}
		}(i, s)
	}
	for range solvers {
		o := <-ch
		if o.res.Status != Equivalent {
			t.Fatalf("shared solve = %v, want equivalent", o.res.Status)
		}
	}
	if st := pool.Stats(); st.Published == 0 {
		t.Logf("note: no clauses crossed the pool (all learnts gate-local); stats %+v", st)
	}
}

// TestShareVerdictsUnchanged: sharing on vs off must not change any
// verdict on the known-answer corpus (differential, all personalities
// solving concurrently over one pool).
func TestShareVerdictsUnchanged(t *testing.T) {
	for _, p := range cubeKnownPairs {
		ta := bv.FromExpr(parser.MustParse(p.a), 8)
		tb := bv.FromExpr(parser.MustParse(p.b), 8)
		solvers := All()
		pool := bitblast.NewPool(len(solvers))
		ch := make(chan Result, len(solvers))
		for i, s := range solvers {
			go func(i int, s *Solver) {
				b := cooperativeBudget
				b.Share = pool.Endpoint(i)
				ch <- s.CheckTermEquiv(ta, tb, b)
			}(i, s)
		}
		want := NotEquivalent
		if p.equiv {
			want = Equivalent
		}
		for range solvers {
			res := <-ch
			if res.Status != want {
				t.Errorf("shared %q vs %q = %v, want %v", p.a, p.b, res.Status, want)
			}
		}
	}
}

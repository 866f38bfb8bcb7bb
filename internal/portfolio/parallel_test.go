package portfolio

import (
	"testing"
	"time"

	"mbasolver/internal/eval"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// knownPairs is the known-answer corpus for differential testing:
// sharing and cubing may change who answers and how fast, never what
// is answered.
var knownPairs = []struct {
	a, b  string
	equiv bool
}{
	{"x+y", "(x|y)+(x&y)", true},
	{"x^y", "(x|y)-(x&y)", true},
	{"x*y", "(x&~y)*(~x&y) + (x&y)*(x|y)", true},
	{"x+y", "x-y", false},
	{"x&y", "x|y", false},
}

// knownPairsBudget is a conflict-only budget under which every
// personality decides each known pair alone, fresh or warm. The
// hardest, the width-8 multiplier identity, takes z3sim ~110k
// conflicts warm, and z3sim's budget is the only one not scaled up by
// a simulated speed. Without a wall clock, verdicts do not depend on
// host load or the race detector's slowdown.
var knownPairsBudget = smt.Budget{Conflicts: 200_000}

func checkWitness(t *testing.T, a, b string, w map[string]uint64, label string) {
	t.Helper()
	env := eval.Env{}
	for k, v := range w {
		env[k] = v
	}
	ea, eb := parser.MustParse(a), parser.MustParse(b)
	if eval.Eval(ea, env, 8) == eval.Eval(eb, env, 8) {
		t.Errorf("%s: witness %v does not distinguish %q and %q", label, w, a, b)
	}
}

// TestParallelMatchesSolo: every combination of sharing and cubing
// returns the solo verdicts on the known-answer corpus.
func TestParallelMatchesSolo(t *testing.T) {
	cubeOpts := &smt.CubeOptions{Vars: 2, ScreenConflicts: 50, Workers: 2}
	configs := []Options{
		{},
		{Share: true},
		{Cubes: cubeOpts},
		{Share: true, Cubes: cubeOpts},
	}
	for ci, opts := range configs {
		set := New(smt.All(), opts)
		for _, p := range knownPairs {
			a, b := parser.MustParse(p.a), parser.MustParse(p.b)
			res := set.CheckEquiv(a, b, 8, knownPairsBudget)
			want := smt.NotEquivalent
			if p.equiv {
				want = smt.Equivalent
			}
			if res.Status != want {
				t.Errorf("config %d: parallel(%q, %q) = %v, want %v", ci, p.a, p.b, res.Status, want)
				continue
			}
			if res.Status == smt.NotEquivalent {
				checkWitness(t, p.a, p.b, res.Witness, "parallel")
			}
		}
	}
}

// TestParallelCubeFallback: a query the clamped screen race cannot
// decide falls through to the cube phase, which appears as one more
// Engine entry and wins. A single z3sim keeps the screen deterministic
// (its basic rewriter cannot prove the multiplier identity at the word
// level, and 5 conflicts are nowhere near enough for the SAT proof).
func TestParallelCubeFallback(t *testing.T) {
	a := parser.MustParse("x*y")
	b := parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)")
	solvers := []*smt.Solver{smt.NewZ3Sim()}
	set := New(solvers, Options{Cubes: &smt.CubeOptions{Vars: 2, ScreenConflicts: 5, Workers: 2}})
	res := set.CheckEquiv(a, b, 8, smt.Budget{Timeout: 60 * time.Second})
	if res.Status != smt.Equivalent {
		t.Fatalf("verdict %v, want equivalent from the cube phase", res.Status)
	}
	if res.Winner != "cubes:z3sim" {
		t.Fatalf("winner %q, want cubes:z3sim", res.Winner)
	}
	last := res.Engines[len(res.Engines)-1]
	if last.Solver != "cubes:z3sim" || !last.Won {
		t.Fatalf("last engine entry = %+v, want the winning cube phase", last)
	}
	// The screen entry must show an honest budget-kind Unknown, not a
	// cancellation (nobody won the race).
	if res.Engines[0].Cancelled || res.Engines[0].Reason != smt.ReasonBudget {
		t.Fatalf("screen entry = %+v, want uncancelled budget Unknown", res.Engines[0])
	}
}

// TestIncrementalSharingAndCubes: the warm-context portfolio with
// sharing and cubes enabled stays sound across repeated queries (the
// generation stamp must keep clauses from one query out of the next).
func TestIncrementalSharingAndCubes(t *testing.T) {
	cs := New(smt.All(), Options{
		Incremental: true,
		Share:       true,
		Cubes:       &smt.CubeOptions{Vars: 2, ScreenConflicts: 2000, Workers: 2},
	})

	for pass := 0; pass < 2; pass++ {
		for _, p := range knownPairs {
			a, b := parser.MustParse(p.a), parser.MustParse(p.b)
			res := cs.CheckEquiv(a, b, 8, knownPairsBudget)
			want := smt.NotEquivalent
			if p.equiv {
				want = smt.Equivalent
			}
			if res.Status != want {
				t.Errorf("pass %d: warm shared(%q, %q) = %v, want %v", pass, p.a, p.b, res.Status, want)
				continue
			}
			if res.Status == smt.NotEquivalent {
				checkWitness(t, p.a, p.b, res.Witness, "warm shared")
			}
		}
	}
	// The pool's counters are observable; traffic depends on how many
	// glue clauses the queries produced, so only the accessor contract
	// is asserted.
	st := cs.ShareStats()
	if st.Published < 0 || st.Delivered < 0 {
		t.Fatalf("nonsense pool stats %+v", st)
	}
}

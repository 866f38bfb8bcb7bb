package portfolio

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/leakcheck"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// decideBudget is a conflict-only budget under which every personality
// decides each small query of this package's tests alone, fresh or
// warm. The most any of them needs is 614 conflicts (btorsim, warm, on
// x+y = (x|y)+y-(~x&y)); the budget is over three times that. Without a
// wall clock, verdicts do not depend on host load or the race
// detector's slowdown.
var decideBudget = smt.Budget{Conflicts: 2000}

// TestPortfolioMatchesBestSingleSolver: on seed-corpus equations the
// portfolio must reach the same verdict as the best single personality
// (btorsim, per the paper's ordering) and report which engine won.
func TestPortfolioMatchesBestSingleSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is slow")
	}
	g := gen.New(gen.Config{Seed: 1})
	samples := g.Corpus(2) // 6 equations across the three categories
	best := smt.NewBoolectorSim()
	budget := smt.Budget{Conflicts: 800}
	for _, s := range samples {
		want := best.CheckEquiv(s.Obfuscated, s.Ground, 8, budget)
		got := New(smt.All(), Options{}).CheckEquiv(s.Obfuscated, s.Ground, 8, budget)
		if want.Status == smt.Timeout {
			// The best personality gave up; the portfolio may still
			// win via another engine, but must never refute an
			// identity.
			if got.Status == smt.NotEquivalent {
				t.Errorf("sample %d: portfolio refuted an identity", s.ID)
			}
			continue
		}
		if got.Status != want.Status {
			t.Errorf("sample %d: portfolio %v, best single %v", s.ID, got.Status, want.Status)
		}
		if got.Winner == "" {
			t.Errorf("sample %d: definitive verdict without a winner", s.ID)
		}
		if len(got.Engines) != 3 {
			t.Errorf("sample %d: %d engine reports, want 3", s.ID, len(got.Engines))
		}
	}
}

func TestPortfolioWinnerAndStats(t *testing.T) {
	res := New(smt.All(), Options{}).CheckEquiv(parser.MustParse("x+y"), parser.MustParse("(x|y)+y-(~x&y)"),
		8, decideBudget)
	if res.Status != smt.Equivalent {
		t.Fatalf("portfolio on identity: %v", res.Status)
	}
	if res.Winner == "" {
		t.Fatal("no winner recorded")
	}
	wins := 0
	for _, e := range res.Engines {
		if e.Solver == "" || e.Verdict == "" {
			t.Errorf("engine report incomplete: %+v", e)
		}
		if e.Won {
			wins++
			if e.Solver != res.Winner {
				t.Errorf("winner mismatch: %q vs %q", e.Solver, res.Winner)
			}
		}
	}
	if wins != 1 {
		t.Errorf("%d engines marked Won, want exactly 1", wins)
	}
}

// hardWidth and hardSides make a query no engine finishes in under a
// second.
const hardWidth = 64

func hardSides() (*expr.Expr, *expr.Expr) {
	return parser.MustParse("x*y"), parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)")
}

// TestPortfolioTimeoutWithinBound: with every engine stuck, a 50ms
// wall-clock budget must bound the whole portfolio to ~2x the budget.
func TestPortfolioTimeoutWithinBound(t *testing.T) {
	a, b := hardSides()
	start := time.Now()
	res := New(smt.All(), Options{}).CheckEquiv(a, b, hardWidth, smt.Budget{Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if res.Status != smt.Timeout {
		t.Fatalf("portfolio = %v, want timeout", res.Status)
	}
	if res.Winner != "" {
		t.Fatalf("timed-out portfolio has winner %q", res.Winner)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("50ms portfolio budget overshot: %v", elapsed)
	}
}

// TestPortfolioCancelsLosers: an easy query must come back quickly
// even though two of three engines would otherwise run unbounded, and
// the losers must be cancelled rather than run to completion.
func TestPortfolioCancelsLosers(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	// x & y == y & x: btorsim decides it at the word level instantly;
	// z3sim/stpsim would need real SAT search at width 32.
	a, b := parser.MustParse("x&y"), parser.MustParse("y&x")
	start := time.Now()
	res := New(smt.All(), Options{}).CheckEquiv(a, b, 32, smt.Budget{})
	elapsed := time.Since(start)
	if res.Status != smt.Equivalent {
		t.Fatalf("portfolio = %v, want equivalent", res.Status)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("portfolio took %v; losers were not cancelled", elapsed)
	}
}

// TestPortfolioExternalCancel: a caller-supplied stop flag cancels the
// entire portfolio mid-flight.
func TestPortfolioExternalCancel(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	a, b := hardSides()
	var stop atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		stop.Store(true)
	}()
	start := time.Now()
	res := New(smt.All(), Options{}).CheckEquiv(a, b, hardWidth, smt.Budget{Stop: &stop})
	elapsed := time.Since(start)
	if res.Status != smt.Timeout {
		t.Fatalf("cancelled portfolio = %v, want timeout", res.Status)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("external cancel observed only after %v", elapsed)
	}
}

// TestPortfolioSolveAssertions covers the satisfiability entry point:
// verdicts, winner, and a replayable model.
func TestPortfolioSolveAssertions(t *testing.T) {
	const width = 8
	x := bv.NewVar("x", width)
	y := bv.NewVar("y", width)
	// x + y == 7 && x != y: satisfiable.
	q1 := bv.Predicate(bv.Eq, bv.Binary(bv.Add, x, y), bv.NewConst(7, width))
	q2 := bv.Predicate(bv.Ne, x, y)
	res := New(smt.All(), Options{}).SolveAssertions([]*bv.Term{q1, q2}, decideBudget)
	if res.Status != smt.Satisfiable {
		t.Fatalf("portfolio SolveAssertions = %v, want sat", res.Status)
	}
	if res.Winner == "" {
		t.Fatal("no winner recorded")
	}
	env := map[string]uint64{"x": res.Model["x"], "y": res.Model["y"]}
	if bv.Eval(q1, env) != 1 || bv.Eval(q2, env) != 1 {
		t.Fatalf("model %v does not satisfy the assertions", res.Model)
	}

	// x & 1 == 0 && x & 1 == 1: unsatisfiable.
	one := bv.NewConst(1, width)
	u1 := bv.Predicate(bv.Eq, bv.Binary(bv.And, x, one), bv.NewConst(0, width))
	u2 := bv.Predicate(bv.Eq, bv.Binary(bv.And, x, one), one)
	ures := New(smt.All(), Options{}).SolveAssertions([]*bv.Term{u1, u2}, decideBudget)
	if ures.Status != smt.Unsatisfiable {
		t.Fatalf("portfolio on contradiction = %v, want unsat", ures.Status)
	}
}

// TestPortfolioConcurrentQueries drives many portfolio queries in
// parallel, one Set per goroutine — race-detector coverage for the
// shared-nothing design.
func TestPortfolioConcurrentQueries(t *testing.T) {
	pairs := [][2]string{
		{"x+y", "(x|y)+y-(~x&y)"},
		{"x^y", "(x|y)-(x&y)"},
		{"x+y", "x-y"},
		{"x&y", "x|y"},
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, p := range pairs {
			wg.Add(1)
			go func(lhs, rhs string) {
				defer wg.Done()
				a, b := parser.MustParse(lhs), parser.MustParse(rhs)
				res := New(smt.All(), Options{}).CheckEquiv(a, b, 8, decideBudget)
				if res.Status == smt.Timeout {
					t.Errorf("%s vs %s timed out", lhs, rhs)
					return
				}
				if res.Status == smt.NotEquivalent {
					env := eval.Env{}
					for k, v := range res.Witness {
						env[k] = v
					}
					if eval.Eval(a, env, 8) == eval.Eval(b, env, 8) {
						t.Errorf("%s vs %s: witness %v does not distinguish", lhs, rhs, res.Witness)
					}
				}
			}(p[0], p[1])
		}
	}
	wg.Wait()
}

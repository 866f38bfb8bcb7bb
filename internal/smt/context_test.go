package smt

import (
	"sync/atomic"
	"testing"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/eval"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
)

// diffCorpus builds a mixed differential corpus: generated linear and
// non-polynomial identities (polynomial MBA is deliberately excluded —
// the paper shows it defeats wall-clock budgets far larger than a unit
// test's), hand-written identities, and non-identities made by
// perturbing ground sides.
func diffCorpus(t *testing.T) [][2]*expr.Expr {
	t.Helper()
	g := gen.New(gen.Config{Seed: 7, LinearTerms: 4, CoeffRange: 3, NonPolyRewrites: 3})
	var samples []gen.Sample
	for i := 0; i < 5; i++ {
		samples = append(samples, g.Linear())
	}
	samples = append(samples, g.NonPoly(), g.NonPoly())
	// With this seed, samples 1 and 6 need tens of seconds of search at
	// width 8 across the personalities; the rest solve in well under a
	// second, which is the budget class a unit test can afford.
	samples = append(samples[:1], samples[2:6]...)
	var pairs [][2]*expr.Expr
	for _, s := range samples {
		lhs, rhs := s.Equation()
		pairs = append(pairs, [2]*expr.Expr{lhs, rhs})
		// Perturbed copy: an identity plus one is never an identity.
		pairs = append(pairs, [2]*expr.Expr{lhs, expr.Binary(expr.OpAdd, rhs, expr.Const(1))})
	}
	for _, p := range [][2]string{
		{"x+y", "(x|y)+y-(~x&y)"},
		{"x^y", "(x|y)-(x&y)"},
		{"x*y", "x+y"},
		{"x&y", "x|y"},
		{"x", "x"},
	} {
		pairs = append(pairs, [2]*expr.Expr{parser.MustParse(p[0]), parser.MustParse(p[1])})
	}
	return pairs
}

// diffBudget is the conflict-only budget of the differential corpus
// runs (TestContextDifferentialEquivalence, TestScreenNeverFlipsVerdicts).
// The hardest query either asks, fresh or warm, takes 30,063
// conflicts, and the personalities' speeds only scale a conflict
// budget up, so 100,000 leaves a 3.3× margin. Without a wall clock,
// verdicts do not depend on host load or the race detector's slowdown.
var diffBudget = Budget{Conflicts: 100_000}

// TestContextDifferentialEquivalence is the acceptance-criterion test:
// across a mixed corpus and all three personalities, the incremental
// context returns verdicts identical to a fresh solver per query, and
// every NotEquivalent witness actually distinguishes the sides.
func TestContextDifferentialEquivalence(t *testing.T) {
	const width = 8
	pairs := diffCorpus(t)
	budget := diffBudget
	for _, s := range All() {
		ctx := s.NewContext()
		freshStatus := make([]Status, len(pairs))
		for i, p := range pairs {
			fresh := s.CheckEquiv(p[0], p[1], width, budget)
			freshStatus[i] = fresh.Status
			inc := ctx.CheckEquiv(p[0], p[1], width, budget)
			if fresh.Status != inc.Status {
				t.Errorf("%s pair %d (%s vs %s): fresh=%v incremental=%v",
					s.Name(), i, p[0], p[1], fresh.Status, inc.Status)
				continue
			}
			if inc.Status == NotEquivalent {
				env := eval.Env{}
				for k, v := range inc.Witness {
					env[k] = v
				}
				if eval.Eval(p[0], env, width) == eval.Eval(p[1], env, width) {
					t.Errorf("%s pair %d: incremental witness %v does not distinguish the sides",
						s.Name(), i, inc.Witness)
				}
			}
		}
		// Replaying the whole corpus through the warm context must hold
		// the same verdicts (the activation-literal cache path).
		for i, p := range pairs {
			warm := ctx.CheckEquiv(p[0], p[1], width, budget)
			if warm.Status != freshStatus[i] {
				t.Errorf("%s pair %d replay: fresh=%v warm=%v", s.Name(), i, freshStatus[i], warm.Status)
			}
		}
		st := ctx.Stats()
		if st.ActHits == 0 {
			t.Errorf("%s: corpus replay reused no activation literals: %+v", s.Name(), st)
		}
		if st.Intern.Hits == 0 {
			t.Errorf("%s: corpus replay had no intern hits: %+v", s.Name(), st)
		}
	}
}

// TestContextTightBudgetNoContradiction: under budgets tight enough to
// time out, warm contexts may legitimately decide queries a fresh
// solver cannot (their learned clauses carry over) — but the two modes
// must never return opposite definitive verdicts.
func TestContextTightBudgetNoContradiction(t *testing.T) {
	const width = 32
	pairs := diffCorpus(t)
	budget := Budget{Conflicts: 50, Timeout: 2 * time.Second}
	for _, s := range All() {
		ctx := s.NewContext()
		for round := 0; round < 2; round++ {
			for i, p := range pairs {
				fresh := s.CheckEquiv(p[0], p[1], width, budget)
				inc := ctx.CheckEquiv(p[0], p[1], width, budget)
				if fresh.Status == Timeout || inc.Status == Timeout {
					continue
				}
				if fresh.Status != inc.Status {
					t.Errorf("%s pair %d round %d: contradiction fresh=%v incremental=%v",
						s.Name(), i, round, fresh.Status, inc.Status)
				}
			}
		}
	}
}

// TestContextStopCancellation: a pre-raised stop flag yields Timeout
// without any search, a flag raised mid-query interrupts promptly, and
// the context stays usable for later queries after both.
func TestContextStopCancellation(t *testing.T) {
	a, b := hardQuery(t)
	ctx := NewBoolectorSim().NewContext()

	var pre atomic.Bool
	pre.Store(true)
	res := ctx.CheckTermEquiv(a, b, Budget{Stop: &pre})
	if res.Status != Timeout {
		t.Fatalf("pre-cancelled query returned %v, want timeout", res.Status)
	}
	if res.Conflicts != 0 {
		t.Fatalf("pre-cancelled query spent %d conflicts", res.Conflicts)
	}

	var stop atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		stop.Store(true)
	}()
	start := time.Now()
	res = ctx.CheckTermEquiv(a, b, Budget{Stop: &stop})
	if res.Status != Timeout {
		t.Fatalf("cancelled query returned %v, want timeout", res.Status)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("cancellation observed only after %v", elapsed)
	}

	// The context must have shed any partially encoded circuit and
	// still answer correctly.
	easyA := bv.FromExpr(parser.MustParse("x+y"), 8)
	easyB := bv.FromExpr(parser.MustParse("(x|y)+y-(~x&y)"), 8)
	// It takes 614 conflicts: a 3.3× margin.
	if got := ctx.CheckTermEquiv(easyA, easyB, Budget{Conflicts: 2000}); got.Status != Equivalent {
		t.Fatalf("post-cancellation query returned %v, want equivalent", got.Status)
	}
}

// TestContextDeadlineTimeout: wall-clock budgets bound warm-context
// queries the same way they bound one-shot queries.
func TestContextDeadlineTimeout(t *testing.T) {
	a, b := hardQuery(t)
	ctx := NewSTPSim().NewContext()
	start := time.Now()
	res := ctx.CheckTermEquiv(a, b, Budget{Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if res.Status != Timeout {
		t.Fatalf("status %v after %v, want timeout", res.Status, elapsed)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("50ms budget overshot: %v", elapsed)
	}
}

// TestContextRecycleWatermarks: a context whose solver outgrows the
// variable watermark recycles the width's state and keeps answering
// correctly; an intern-table watermark forces a full reset.
func TestContextRecycleWatermarks(t *testing.T) {
	s := NewZ3Sim()
	ctx := s.NewContext()
	ctx.maxVars = 200
	// The costliest query takes 25284 conflicts (fresh; 25148 warm): a
	// 4× margin.
	budget := Budget{Conflicts: 100_000}
	pairs := diffCorpus(t)
	for _, p := range pairs {
		fresh := s.CheckEquiv(p[0], p[1], 8, budget)
		inc := ctx.CheckEquiv(p[0], p[1], 8, budget)
		if fresh.Status != inc.Status {
			t.Errorf("%s vs %s: fresh=%v incremental=%v under recycling",
				p[0], p[1], fresh.Status, inc.Status)
		}
	}
	if ctx.Stats().Recycles == 0 {
		t.Fatalf("maxVars=200 never recycled across the corpus: %+v", ctx.Stats())
	}

	ctx = s.NewContext()
	ctx.maxTerms = 10
	for _, p := range pairs[:6] {
		ctx.CheckEquiv(p[0], p[1], 8, budget)
	}
	if ctx.Stats().FullResets == 0 {
		t.Fatalf("maxTerms=10 never reset the context: %+v", ctx.Stats())
	}
	// Still correct after resets.
	res := ctx.CheckEquiv(parser.MustParse("x^y"), parser.MustParse("(x|y)-(x&y)"), 8, budget)
	if res.Status != Equivalent {
		t.Fatalf("post-reset verdict %v, want equivalent", res.Status)
	}
}

// TestContextWidthIsolation: queries at different widths get separate
// solver states, and reusing a variable name at a new width recycles
// instead of panicking in VarBits.
func TestContextWidthIsolation(t *testing.T) {
	ctx := NewBoolectorSim().NewContext()
	// The hardest query takes 874 conflicts: an 11.4× margin.
	budget := Budget{Conflicts: 10_000}
	a, b := parser.MustParse("x+y"), parser.MustParse("(x^y)+2*(x&y)")
	for _, width := range []uint{8, 16, 8, 32, 16} {
		if res := ctx.CheckEquiv(a, b, width, budget); res.Status != Equivalent {
			t.Fatalf("width %d: %v, want equivalent", width, res.Status)
		}
	}
	// Same state key, clashing variable widths: width-1 predicate sides
	// over x and y at 8 bits, then at 16 bits, then at 8 again. Each
	// query reaches the SAT search, and each change of width recycles
	// the width-1 state.
	side := func(src string, w uint) *bv.Term {
		return bv.Predicate(bv.Eq, bv.FromExpr(parser.MustParse(src), w), bv.NewConst(3, w))
	}
	recycles := ctx.Stats().Recycles
	for _, w := range []uint{8, 16, 8} {
		res := ctx.CheckTermEquiv(side("x+y", w), side("(x|y)+(x&y)", w), budget)
		if res.Status != Equivalent || res.Rewritten || res.Screened {
			t.Fatalf("width-%d predicates: %+v, want equivalent by search", w, res)
		}
	}
	if got := ctx.Stats().Recycles - recycles; got != 2 {
		t.Fatalf("clashing variable widths recycled %d times, want 2", got)
	}
}

// TestContextRepeatQueriesGetCheaper: the headline incremental win —
// re-solving a query through a warm context spends no new encoding
// work (the activation literal and circuit are reused wholesale).
func TestContextRepeatQueriesGetCheaper(t *testing.T) {
	ctx := NewZ3Sim().NewContext()
	// The costliest of the four solves takes 338 conflicts: a 29.6×
	// margin.
	budget := Budget{Conflicts: 10_000}
	a := bv.FromExpr(parser.MustParse("(x|y)+y-(~x&y)"), 8)
	b := bv.FromExpr(parser.MustParse("x+y"), 8)

	first := ctx.CheckTermEquiv(a, b, budget)
	if first.Status != Equivalent {
		t.Fatalf("first solve: %v, want equivalent", first.Status)
	}
	misses := ctx.Stats().Blast.CacheMisses
	for i := 0; i < 3; i++ {
		res := ctx.CheckTermEquiv(a, b, budget)
		if res.Status != Equivalent {
			t.Fatalf("repeat %d: %v, want equivalent", i, res.Status)
		}
	}
	st := ctx.Stats()
	if st.Blast.CacheMisses != misses {
		t.Errorf("repeats re-encoded term nodes: %d -> %d misses", misses, st.Blast.CacheMisses)
	}
	if st.ActHits < 3 {
		t.Errorf("repeats minted new activation literals: ActHits=%d", st.ActHits)
	}
}

package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/fault"
	"mbasolver/internal/leakcheck"
	"mbasolver/internal/parser"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/smt"
)

const width = 8

// pair is one known-answer corpus entry. Ground truth is by
// construction (textbook MBA identities and deliberate non-identities),
// so a disagreeing verdict is the solver's fault, not the oracle's.
type pair struct {
	a, b string
	want smt.Status
}

var corpus = []pair{
	{"x+y", "(x|y)+(x&y)", smt.Equivalent},
	{"x^y", "(x|y)-(x&y)", smt.Equivalent},
	{"x*3", "x+x+x", smt.Equivalent},
	{"(x&~y)+y", "x|y", smt.Equivalent},
	{"x", "x+1", smt.NotEquivalent},
	{"x&y", "x|y", smt.NotEquivalent},
}

func terms(t *testing.T, p pair) (*bv.Term, *bv.Term) {
	t.Helper()
	return bv.FromExpr(parser.MustParse(p.a), width), bv.FromExpr(parser.MustParse(p.b), width)
}

// budget leaves real headroom so that, with injection off, every corpus
// query terminates definitively: the costliest takes 214 conflicts (a
// warm z3sim context), a 4.7× margin. Conflicts, not the wall clock,
// bound it, so a loaded host cannot turn a verdict into a timeout.
func budget() smt.Budget { return smt.Budget{Conflicts: 1000} }

// faultSpecs is one spec per injectable fault class in the solver
// stack, plus probabilistic variants that scatter faults instead of
// firing periodically. (service.admit / service.worker are exercised by
// TestServiceChaos, which goes through HTTP.)
var faultSpecs = []string{
	"sat.learn:every=3",
	"sat.propagate:every=5",
	"bitblast.gate:every=40",
	"smt.rewrite:every=2",
	"smt.context:every=3",
	"sat.learn:p=0.5,seed=7",
	"bitblast.gate:p=0.05,seed=11",
	"smt.context:p=0.3,seed=13;sat.learn:p=0.2,seed=17",
}

// checkDegraded asserts the graceful-degradation contract for one
// result under injection: the true verdict or a reasoned Unknown,
// never the opposite verdict. Witnesses must really distinguish.
func checkDegraded(t *testing.T, p pair, res smt.Result) (degraded bool) {
	t.Helper()
	switch res.Status {
	case smt.Timeout:
		if res.Reason == smt.ReasonNone {
			t.Errorf("%s vs %s: degraded to Unknown with no reason", p.a, p.b)
		}
		return true
	case p.want:
		if res.Status == smt.NotEquivalent {
			// Under injection a refutation can land while the witness
			// probe loses its budget (findWitness reports no-witness
			// rather than fabricating one). A missing witness is
			// acceptable degradation; a wrong witness never is.
			if res.Witness != nil {
				checkWitness(t, p, res.Witness)
			}
		}
		return false
	default:
		t.Fatalf("%s vs %s: WRONG verdict %v under injection, want %v or unknown",
			p.a, p.b, res.Status, p.want)
		return false
	}
}

// checkExact asserts full recovery: the precise verdict, post-Disable.
func checkExact(t *testing.T, p pair, res smt.Result) {
	t.Helper()
	if res.Status != p.want {
		t.Fatalf("%s vs %s: %v after faults cleared, want %v (reason %q)",
			p.a, p.b, res.Status, p.want, res.Reason)
	}
	if res.Status == smt.NotEquivalent {
		checkWitness(t, p, res.Witness)
	}
}

func checkWitness(t *testing.T, p pair, w map[string]uint64) {
	t.Helper()
	if w == nil {
		t.Fatalf("%s vs %s: not-equivalent without witness", p.a, p.b)
	}
	ta, tb := terms(t, p)
	if bv.Eval(ta, w) == bv.Eval(tb, w) {
		t.Fatalf("%s vs %s: witness %v does not distinguish", p.a, p.b, w)
	}
}

// runners are the execution modes the corpus sweeps: a stateless
// solver and a warm incremental context per personality, plus the
// warm portfolio set.
type runner struct {
	name string
	make func() func(*testing.T, pair) smt.Result
}

func allRunners() []runner {
	var rs []runner
	for _, s := range smt.All() {
		s := s
		rs = append(rs,
			runner{"fresh-" + s.Name(), func() func(*testing.T, pair) smt.Result {
				return func(t *testing.T, p pair) smt.Result {
					ta, tb := terms(t, p)
					return s.CheckTermEquiv(ta, tb, budget())
				}
			}},
			runner{"context-" + s.Name(), func() func(*testing.T, pair) smt.Result {
				ctx := s.NewContext()
				return func(t *testing.T, p pair) smt.Result {
					ta, tb := terms(t, p)
					return ctx.CheckTermEquiv(ta, tb, budget())
				}
			}})
	}
	return append(rs,
		runner{"contextset", func() func(*testing.T, pair) smt.Result {
			cs := portfolio.New(smt.All(), portfolio.Options{
				Incremental: true,
				Breakers:    &portfolio.BreakerOptions{Threshold: 2, Cooldown: 10 * time.Millisecond},
			})
			return func(t *testing.T, p pair) smt.Result {
				return cs.CheckEquiv(parser.MustParse(p.a), parser.MustParse(p.b), width, budget()).Result
			}
		}})
}

// TestSolverChaos sweeps every fault class over every execution mode:
// two corpus passes under injection (the second hits the poisoned-reset
// and breaker paths that the first pass armed), then a clean pass that
// must answer everything exactly.
func TestSolverChaos(t *testing.T) {
	for _, spec := range faultSpecs {
		for _, r := range allRunners() {
			t.Run(fmt.Sprintf("%s/%s", spec, r.name), func(t *testing.T) {
				t.Cleanup(leakcheck.Check(t))
				defer fault.Disable()
				run := r.make()

				if err := fault.EnableSpec(spec); err != nil {
					t.Fatal(err)
				}
				degraded := 0
				for pass := 0; pass < 2; pass++ {
					for _, p := range corpus {
						if checkDegraded(t, p, run(t, p)) {
							degraded++
						}
					}
				}

				fault.Disable()
				for _, p := range corpus {
					checkExact(t, p, run(t, p))
				}
				t.Logf("%d/%d queries degraded to unknown under %s", degraded, 2*len(corpus), spec)
			})
		}
	}
}

// TestServiceChaos drives the HTTP service with concurrent clients
// while worker panics, admission failures and solver faults all fire
// probabilistically. Any well-formed response must carry the true
// verdict; failures must be clean status errors. Afterwards the same
// pool — no restarts — must answer the whole corpus correctly, and the
// test must leak nothing.
func TestServiceChaos(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	defer fault.Disable()

	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		sctx, cancel := contextWithTimeout(10 * time.Second)
		defer cancel()
		if err := svc.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	// Shed load (429/503) counts as clean degradation below, so the
	// client makes a single attempt per call.
	cl := client.New(ts.URL)

	spec := "service.worker:p=0.3,seed=3;service.admit:p=0.1,seed=5;" +
		"smt.rewrite:p=0.2,seed=23;sat.learn:p=0.2,seed=29"
	if err := fault.EnableSpec(spec); err != nil {
		t.Fatal(err)
	}

	const rounds = 3
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i, p := range corpus {
			wg.Add(1)
			go func(i int, p pair) {
				defer wg.Done()
				ctx, cancel := contextWithTimeout(time.Minute)
				defer cancel()
				resp, err := cl.Solve(ctx, service.SolveRequest{A: p.a, B: p.b, Width: width})
				if err != nil {
					var se *client.StatusError
					if !errors.As(err, &se) {
						t.Errorf("corpus[%d]: non-status error %v", i, err)
						return
					}
					switch se.Code {
					case http.StatusInternalServerError, http.StatusTooManyRequests, http.StatusServiceUnavailable:
						// Contained panic or shed load: clean degradation.
					default:
						t.Errorf("corpus[%d]: unexpected status %d", i, se.Code)
					}
					return
				}
				switch resp.Status {
				case "timeout":
					if resp.Reason == "" {
						t.Errorf("corpus[%d]: timeout with no reason", i)
					}
				case p.want.String():
					// Truth survived the chaos.
				default:
					t.Errorf("corpus[%d]: WRONG verdict %q under chaos, want %q",
						i, resp.Status, p.want)
				}
			}(i, p)
		}
		wg.Wait()
	}

	// Same workers, faults cleared: full recovery, exact verdicts.
	fault.Disable()
	for i, p := range corpus {
		ctx, cancel := contextWithTimeout(time.Minute)
		resp, err := cl.Solve(ctx, service.SolveRequest{A: p.a, B: p.b, Width: width})
		cancel()
		if err != nil {
			t.Fatalf("corpus[%d] post-chaos: %v", i, err)
		}
		if resp.Status != p.want.String() {
			t.Fatalf("corpus[%d] post-chaos: %q, want %q", i, resp.Status, p.want)
		}
	}
	if n := fault.PanicCount(); n > 0 {
		t.Logf("%d panics injected and contained", n)
	}
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// Concurrency acceptance tests. These are written to run under
// `go test -race`: the race detector is half the assertion, the
// metrics surface the other half.
package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mbasolver/internal/service"
)

// TestSustains64ConcurrentInFlight drives 64 simultaneous solve
// requests, each wall-clock bound, and requires the pool's high-water
// mark to show all 64 genuinely executing at once.
func TestSustains64ConcurrentInFlight(t *testing.T) {
	const n = 64
	svc, cl := newTestServer(t, service.Config{
		Workers:    n + 8,
		QueueDepth: 4 * n,
		MaxTimeout: time.Minute,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-request variable names keep every query out of the
			// others' cache entries while staying the same hard UNSAT
			// identity, so all 64 run their full wall-clock budget.
			x, y := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)
			req := service.SolveRequest{
				A:     fmt.Sprintf("%s*%s", x, y),
				B:     fmt.Sprintf("(%[1]s&~%[2]s)*(~%[1]s&%[2]s) + (%[1]s&%[2]s)*(%[1]s|%[2]s)", x, y),
				Width: 64,
				// The wall budget is the overlap window: every request
				// must still be running when the slowest-to-arrive one
				// enters flight. 5s absorbs the arrival stagger of 64
				// HTTP round trips under race-detector scheduling.
				TimeoutMS: 5_000, Conflicts: 1 << 40,
			}
			resp, err := cl.Solve(ctx, req)
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			if resp.Status != "timeout" {
				errs <- fmt.Errorf("request %d: verdict %s, want timeout on the hard identity", i, resp.Status)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := svc.Metrics()
	if m.Pool.MaxInFlight < n {
		t.Fatalf("max in-flight = %d, want >= %d (requests were serialized)", m.Pool.MaxInFlight, n)
	}
	if m.Pool.Rejected != 0 {
		t.Fatalf("%d requests shed despite ample queue", m.Pool.Rejected)
	}
	waitInFlight0(t, svc)
}

// TestConcurrentMixedCorpusCacheAndVerdictStability pushes a mixed
// linear/poly/nonpoly corpus through the solve handler from many
// goroutines with heavy repetition, asserting (a) repeats are served
// from the verdict cache and (b) no query ever flips its verdict.
func TestConcurrentMixedCorpusCacheAndVerdictStability(t *testing.T) {
	svc, cl := newTestServer(t, service.Config{
		Workers:    8,
		QueueDepth: 512,
		MaxTimeout: time.Minute,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	corpus := []struct {
		a, b  string
		width uint
		want  string
	}{
		// Linear MBA identities (paper Table 4 shapes).
		{"2*(x|y) - (~x&y) - (x&~y)", "x+y", 8, "equivalent"},
		{"(x|y)+(x&y)", "x+y", 8, "equivalent"},
		{"(x|y)-(x&y)", "x^y", 8, "equivalent"},
		{"x + y - 2*(x&y)", "x^y", 8, "equivalent"},
		// Polynomial MBA. The Figure-1 identity blows up past width 4
		// (seconds per solve even unloaded), so it runs at the width
		// where it is decisively solvable yet still exercises the
		// nonlinear bit-blasting path.
		{"(x&y)*(x|y) + (x&~y)*(~x&y)", "x*y", 4, "equivalent"},
		{"x*x + 2*x + 1", "(x+1)*(x+1)", 8, "equivalent"},
		// Non-polynomial MBA (bitwise over arithmetic).
		{"~(x+y)", "~x - y", 8, "equivalent"},
		{"-(x^y)", "(x&y) - (x|y)", 8, "equivalent"},
		// Disequalities with witnesses.
		{"x", "x+1", 8, "not-equivalent"},
		{"x&y", "x|y", 8, "not-equivalent"},
		{"x*y", "x+y", 8, "not-equivalent"},
	}

	const goroutines = 12
	const rounds = 6
	verdicts := make([]sync.Map, len(corpus)) // query index -> set of observed verdicts
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for qi, q := range corpus {
					req := service.SolveRequest{A: q.a, B: q.b, Width: q.width, TimeoutMS: 10_000}
					// Alternate personalities and the portfolio across
					// goroutines: the semantic cache and the verdict
					// stability check must hold across all modes.
					switch (g + qi + r) % 4 {
					case 0:
						req.Portfolio = true
					case 1:
						req.Solver = "z3sim"
					case 2:
						req.Solver = "stpsim"
					case 3:
						req.Solver = "btorsim"
					}
					resp, err := cl.Solve(ctx, req)
					if err != nil {
						errs <- fmt.Errorf("g%d r%d q%d: %w", g, r, qi, err)
						return
					}
					verdicts[qi].Store(resp.Status, true)
					if resp.Status != q.want {
						errs <- fmt.Errorf("g%d r%d: %q vs %q = %s, want %s", g, r, q.a, q.b, resp.Status, q.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for qi := range corpus {
		count := 0
		verdicts[qi].Range(func(_, _ any) bool { count++; return true })
		if count != 1 {
			t.Errorf("query %d produced %d distinct verdicts, want 1", qi, count)
		}
	}

	m := svc.Metrics()
	total := int64(goroutines * rounds * len(corpus))
	// Misses can only happen in each goroutine's first round (queries
	// racing ahead of the first Put); from round 1 on, every verdict is
	// pinned in the cache, so hits are bounded below by the later
	// rounds' traffic.
	floor := total - int64(goroutines*len(corpus))
	if m.Cache.Hits < floor {
		t.Errorf("cache hits = %d of %d requests, want >= %d; repetition was not cached (misses=%d)",
			m.Cache.Hits, total, floor, m.Cache.Misses)
	}
	if m.Cache.HitRate < 0.8 {
		t.Errorf("cache hit rate %.2f, want > 0.8 under heavy repetition", m.Cache.HitRate)
	}
	waitInFlight0(t, svc)
}

// waitInFlight0 asserts the pool drains back to idle.
func waitInFlight0(t *testing.T, svc *service.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := svc.Metrics()
		if m.Pool.InFlight == 0 && m.Pool.QueueDepth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain: in_flight=%d queue=%d", m.Pool.InFlight, m.Pool.QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

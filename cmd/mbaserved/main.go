// Command mbaserved runs the MBA simplify-and-solve HTTP service.
//
// Usage:
//
//	mbaserved [-addr 127.0.0.1:8391] [-workers N] [-queue N] [-cache N]
//	          [-timeout 5s] [-max-timeout 60s] [-width 64]
//	          [-breaker-threshold N] [-breaker-cooldown 250ms]
//	          [-store DIR]
//	mbaserved -selfcheck [-target http://host:port] [-expect-store-recovered]
//
// In server mode it listens on -addr (port 0 picks a free port), prints
// the resolved URL on stdout and serves until SIGINT/SIGTERM, then
// shuts down gracefully: admission stops, in-flight solves are
// cancelled through their budget stop flags, and the worker pool
// drains.
//
// With -store the node persists definitive verdicts, simplifications
// and classify answers in an append-only, checksummed log under DIR
// and replays it at boot, so a restarted node answers its warm set
// from disk instead of re-solving it. Recovery never blocks startup:
// a torn or corrupt log is truncated to its intact prefix (reported on
// stdout before the listening line, and in /debug/metrics under
// "store"). A SIGKILLed node loses at most the last group-commit
// interval of writes.
//
// With -selfcheck it drives a server end-to-end — simplify (verified),
// solve (single and portfolio, cached repeats), classify, a concurrent
// burst, and a /debug/metrics scrape asserting cache hits and a quiet
// pool — and exits non-zero on any failure. Without -target it boots a
// private in-process server and additionally checks that shutdown
// returns the process to its baseline goroutine count; with -target it
// smokes a running instance (this is what scripts/ci.sh does). The
// extra -expect-store-recovered flag makes the target-mode smoke also
// require the server to report a non-empty store recovery and store
// hits — the crash-and-restart assertion in ci.sh's SIGKILL stage.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8391", "listen address (port 0 picks a free port)")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	cacheSize := flag.Int("cache", 0, "verdict/simplification cache entries (0 = 4096, negative disables)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request solve budget")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "hard cap on requested budgets")
	width := flag.Uint("width", 64, "default ring width when requests omit one")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive panic/resource failures opening a personality's circuit breaker (0 = 3, negative disables breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "initial cooldown of an open circuit breaker (0 = 250ms)")
	storeDir := flag.String("store", "", "persistent verdict store directory (empty = memory-only)")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end smoke instead of serving")
	target := flag.String("target", "", "with -selfcheck: smoke this base URL instead of an in-process server")
	expectRecovered := flag.Bool("expect-store-recovered", false, "with -selfcheck -target: require the server to report store recovery and store hits")
	flag.Parse()

	cfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cacheSize,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DefaultWidth:     *width,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}

	if *selfcheck {
		os.Exit(runSelfcheck(cfg, *target, *expectRecovered))
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			// Open only fails on environment errors (unwritable directory);
			// corruption never stops a boot.
			fmt.Fprintln(os.Stderr, "mbaserved:", err)
			os.Exit(1)
		}
		cfg.Store = st
		snap := st.Snapshot()
		fmt.Printf("mbaserved: store %s: recovered %d record(s), %d truncation(s)\n",
			*storeDir, snap.Recovered, snap.Truncated)
	}

	svc := service.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbaserved:", err)
		os.Exit(1)
	}
	fmt.Printf("mbaserved: listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	//lint:ignore goroutinelife Serve returns on Shutdown/listener close and errc is buffered, so the sender cannot linger
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mbaserved: %v, shutting down\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mbaserved:", err)
		os.Exit(1)
	}

	// Cancel in-flight solves first so blocked handlers return quickly,
	// then let the HTTP layer finish writing responses.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mbaserved: pool shutdown:", err)
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mbaserved: http shutdown:", err)
		os.Exit(1)
	}
	if st != nil {
		// After the pool drained: the last persists are queued, the final
		// group commit flushes them.
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mbaserved: store close:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, "mbaserved: drained, bye")
}

// runSelfcheck smokes a server and returns the process exit code.
func runSelfcheck(cfg service.Config, target string, expectRecovered bool) int {
	if target != "" {
		if err := smoke(target, expectRecovered); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck FAIL:", err)
			return 1
		}
		if expectRecovered {
			if err := checkStoreRecovered(target); err != nil {
				fmt.Fprintln(os.Stderr, "selfcheck FAIL:", err)
				return 1
			}
		}
		fmt.Println("selfcheck ok")
		return 0
	}

	// In-process: boot a private server on a free port, smoke it, shut
	// it down, and require the goroutine count to return to baseline —
	// a leaked watcher or worker fails CI here.
	baseline := runtime.NumGoroutine()
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck FAIL:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	//lint:ignore goroutinelife Serve returns when httpSrv.Shutdown below closes the listener
	go func() { _ = httpSrv.Serve(ln) }()

	smokeErr := smoke("http://"+ln.Addr().String(), false)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck FAIL: pool shutdown:", err)
		return 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck FAIL: http shutdown:", err)
		return 1
	}
	if smokeErr != nil {
		fmt.Fprintln(os.Stderr, "selfcheck FAIL:", smokeErr)
		return 1
	}
	// Goroutine counts settle asynchronously (connection teardown,
	// watcher exits); poll briefly before declaring a leak.
	const slack = 4
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "selfcheck FAIL: goroutine leak: %d at start, %d after shutdown\n",
				baseline, runtime.NumGoroutine())
			return 1
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("selfcheck ok")
	return 0
}

// checkStoreRecovered asserts a warm-restart target actually restarted
// warm: its metrics must report a store that replayed records at boot
// AND served at least one of this smoke's queries from disk (the LRU
// is cold after a restart, so the smoke's first queries fall through
// to the store when the previous run persisted them).
func checkStoreRecovered(base string) error {
	cl := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	met, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	switch {
	case met.Store == nil:
		return fmt.Errorf("no store metrics; is the server running with -store?")
	case met.Store.Recovered == 0:
		return fmt.Errorf("store recovered 0 records; expected a warm restart (%+v)", *met.Store)
	case met.Store.Hits == 0:
		return fmt.Errorf("store hits = 0; the warm restart served nothing from disk (%+v)", *met.Store)
	}
	fmt.Printf("store: recovered=%d truncated=%d hits=%d puts=%d\n",
		met.Store.Recovered, met.Store.Truncated, met.Store.Hits, met.Store.Puts)
	return nil
}

// smoke drives every endpoint and checks the metrics surface. It owns
// its HTTP transport so it can close idle keep-alive connections before
// the final goroutine accounting: each pooled connection pins a conn
// goroutine server-side, which would read as a leak otherwise.
//
// warmRestart flips the pool-admission expectation: on a cold boot the
// smoke's queries must reach the workers, but on a warm restart the
// same deterministic queries are supposed to come back from the
// persistent store without ever touching the pool.
func smoke(base string, warmRestart bool) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := cl.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	before, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics (before): %w", err)
	}

	// Simplify the paper's running example, with a verified proof.
	simpReq := service.SimplifyRequest{Expr: "2*(x|y) - (~x&y) - (x&~y)", Width: 8, Verify: true}
	simp, err := cl.Simplify(ctx, simpReq)
	if err != nil {
		return fmt.Errorf("simplify: %w", err)
	}
	if simp.Verify == nil || simp.Verify.Status != "equivalent" {
		return fmt.Errorf("simplify: verification did not prove equivalence: %+v", simp.Verify)
	}
	if simp.After.Alternation > simp.Before.Alternation {
		return fmt.Errorf("simplify: alternation grew from %d to %d", simp.Before.Alternation, simp.After.Alternation)
	}
	// The identical query again must be a cache hit.
	again, err := cl.Simplify(ctx, simpReq)
	if err != nil {
		return fmt.Errorf("simplify (repeat): %w", err)
	}
	if !again.Cached {
		return fmt.Errorf("simplify (repeat): expected a cache hit")
	}

	// Solve: a portfolio-raced identity, its cached repeat, and a
	// disequality with a witness.
	solveReq := service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8, Portfolio: true}
	sol, err := cl.Solve(ctx, solveReq)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if sol.Status != "equivalent" {
		return fmt.Errorf("solve: x^y vs (x|y)-(x&y) = %s, want equivalent", sol.Status)
	}
	solAgain, err := cl.Solve(ctx, solveReq)
	if err != nil {
		return fmt.Errorf("solve (repeat): %w", err)
	}
	if !solAgain.Cached {
		return fmt.Errorf("solve (repeat): expected a cache hit")
	}
	neq, err := cl.Solve(ctx, service.SolveRequest{A: "x", B: "x+1", Width: 8})
	if err != nil {
		return fmt.Errorf("solve (neq): %w", err)
	}
	if neq.Status != "not-equivalent" || neq.Witness == nil {
		return fmt.Errorf("solve (neq): got %s witness=%v, want not-equivalent with witness", neq.Status, neq.Witness)
	}

	// Classify a polynomial MBA.
	cls, err := cl.Classify(ctx, service.ClassifyRequest{Expr: "(x&~y)*(~x&y) + (x&y)*(x|y)"})
	if err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	if cls.Metrics.Kind != "poly" {
		return fmt.Errorf("classify: kind %s, want poly", cls.Metrics.Kind)
	}

	// Concurrent burst: distinct queries so every one does real work.
	// Overload answers are retried with the server's own backoff hint;
	// anything else non-2xx fails the smoke.
	const burst = 32
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := service.SimplifyRequest{
				Expr:  fmt.Sprintf("%d*(x|y) + %d*(x&y) - (x^y)", i+2, i+3),
				Width: 8,
			}
			var err error
			for attempt := 0; attempt < 5; attempt++ {
				_, err = cl.Simplify(ctx, req)
				se, ok := err.(*client.StatusError)
				if err == nil || !ok || !se.Overloaded() {
					break
				}
				time.Sleep(se.RetryAfter)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return fmt.Errorf("burst: %w", err)
		}
	}

	// Metrics surface: cache hits recorded, pool drained back to idle,
	// no goroutine pile-up server-side. Idle connections from the burst
	// are closed first so their server conn goroutines wind down; the
	// poll then waits for both the pool and the goroutine count to
	// settle (conn teardown is asynchronous server-side).
	tr.CloseIdleConnections()
	var after *service.MetricsSnapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, err = cl.Metrics(ctx)
		if err != nil {
			return fmt.Errorf("metrics (after): %w", err)
		}
		if after.Pool.InFlight == 0 && after.Pool.QueueDepth == 0 &&
			after.Goroutines-before.Goroutines <= 16 {
			break
		}
		if time.Now().After(deadline) {
			if after.Pool.InFlight != 0 || after.Pool.QueueDepth != 0 {
				return fmt.Errorf("pool did not drain: in_flight=%d queue=%d", after.Pool.InFlight, after.Pool.QueueDepth)
			}
			return fmt.Errorf("server goroutines grew by %d during the smoke (leak?)", after.Goroutines-before.Goroutines)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if hits := after.Cache.Hits - before.Cache.Hits; hits < 2 {
		return fmt.Errorf("cache hits grew by %d, want >= 2", hits)
	}
	if !warmRestart && after.Pool.Admitted <= before.Pool.Admitted {
		return fmt.Errorf("admitted counter did not move")
	}
	return nil
}

// End-to-end handler tests. These live in the external test package so
// they can drive the server through the typed client (which imports
// service, and so cannot be referenced from in-package tests).
package service_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mbasolver/internal/eval"
	"mbasolver/internal/parser"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
)

// newTestServer boots a service with its HTTP front and returns a
// typed client; everything is torn down with the test.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return svc, client.New(ts.URL)
}

func TestSimplifyEndpoint(t *testing.T) {
	svc, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	req := service.SimplifyRequest{Expr: "2*(x|y) - (~x&y) - (x&~y)", Width: 8}
	resp, err := cl.Simplify(ctx, req)
	if err != nil {
		t.Fatalf("simplify: %v", err)
	}
	if resp.Simplified != "x+y" {
		t.Fatalf("simplified to %q, want x+y", resp.Simplified)
	}
	if resp.Cached {
		t.Fatal("first query reported cached")
	}
	if resp.Hash == "" || resp.Before.Alternation <= resp.After.Alternation {
		t.Fatalf("bad metrics/hash: %+v", resp)
	}

	// The same query — even written with different operand order — must
	// hit the cache thanks to the canonical hash key.
	resp2, err := cl.Simplify(ctx, service.SimplifyRequest{Expr: "2*(y|x) - (y&~x) - (~y&x)", Width: 8})
	if err != nil {
		t.Fatalf("simplify (repeat): %v", err)
	}
	if !resp2.Cached {
		t.Fatal("canonically identical query missed the cache")
	}
	if resp2.Simplified != "x+y" {
		t.Fatalf("cached result %q, want x+y", resp2.Simplified)
	}
	if hits := svc.Metrics().Cache.Hits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

func TestSolveEndpointVerdicts(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	eq, err := cl.Solve(ctx, service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if eq.Status != "equivalent" || eq.Solver != "btorsim" {
		t.Fatalf("got %+v, want equivalent via btorsim", eq)
	}

	neq, err := cl.Solve(ctx, service.SolveRequest{A: "x|y", B: "x&y", Width: 8})
	if err != nil {
		t.Fatalf("solve (neq): %v", err)
	}
	if neq.Status != "not-equivalent" {
		t.Fatalf("x|y vs x&y = %s, want not-equivalent", neq.Status)
	}
	// The witness must actually distinguish the sides.
	a, b := parser.MustParse("x|y"), parser.MustParse("x&y")
	env := eval.Env(neq.Witness)
	if eval.Eval(a, env, 8) == eval.Eval(b, env, 8) {
		t.Fatalf("witness %v does not distinguish the sides", neq.Witness)
	}

	pf, err := cl.Solve(ctx, service.SolveRequest{A: "x+y", B: "(x|y)+(x&y)", Width: 8, Portfolio: true})
	if err != nil {
		t.Fatalf("solve (portfolio): %v", err)
	}
	if pf.Status != "equivalent" || pf.Solver == "" || len(pf.Engines) != 3 {
		t.Fatalf("portfolio result %+v, want equivalent with 3 engine reports", pf)
	}
}

// TestSolveCacheIsSemantic: the cache key ignores personality and
// budget (a verdict is a fact about the query), so a portfolio request
// is served from a single-solver entry.
func TestSolveCacheIsSemantic(t *testing.T) {
	svc, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	if _, err := cl.Solve(ctx, service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8, Solver: "z3sim"}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	// Same semantic query: sides swapped, portfolio mode, other budget.
	resp, err := cl.Solve(ctx, service.SolveRequest{
		A: "(x|y)-(x&y)", B: "x^y", Width: 8, Portfolio: true, TimeoutMS: 50,
	})
	if err != nil {
		t.Fatalf("solve (cached): %v", err)
	}
	if !resp.Cached {
		t.Fatal("semantically identical query missed the cache")
	}
	if resp.Status != "equivalent" {
		t.Fatalf("cached status %s, want equivalent", resp.Status)
	}
	// A different width is a different fact and must not hit.
	resp16, err := cl.Solve(ctx, service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 16})
	if err != nil {
		t.Fatalf("solve (w16): %v", err)
	}
	if resp16.Cached {
		t.Fatal("width-16 query wrongly served from the width-8 entry")
	}
	if misses := svc.Metrics().Cache.Misses; misses < 2 {
		t.Fatalf("cache misses = %d, want >= 2", misses)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()
	cases := []struct {
		expr string
		kind string
	}{
		{"2*(x|y) - (~x&y)", "linear"},
		{"(x&y)*(x|y) + z", "poly"},
		{"~(x+y) & z", "nonpoly"},
	}
	for _, c := range cases {
		resp, err := cl.Classify(ctx, service.ClassifyRequest{Expr: c.expr})
		if err != nil {
			t.Fatalf("classify %q: %v", c.expr, err)
		}
		if resp.Metrics.Kind != c.kind {
			t.Errorf("classify %q: kind %s, want %s", c.expr, resp.Metrics.Kind, c.kind)
		}
		if resp.Hash == "" {
			t.Errorf("classify %q: missing hash", c.expr)
		}
	}
}

// TestClassifySampling drives the bulk I/O-sampling path: samples must
// be deterministic for a fixed seed, replay correctly through the tree
// evaluator, and respect the requested width.
func TestClassifySampling(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()
	const src = "(x&~y) + 3*z"
	const width = 16
	e := parser.MustParse(src)

	req := service.ClassifyRequest{Expr: src, Width: width, Samples: 200}
	resp, err := cl.Classify(ctx, req)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if resp.Width != width {
		t.Fatalf("resolved width %d, want %d", resp.Width, width)
	}
	if len(resp.Samples) != 200 {
		t.Fatalf("got %d samples, want 200", len(resp.Samples))
	}
	mask := uint64(1)<<width - 1
	for i, p := range resp.Samples {
		env := eval.Env{}
		for name, v := range p.Inputs {
			if v != v&mask {
				t.Fatalf("sample %d: input %s=%d exceeds width %d", i, name, v, width)
			}
			env[name] = v
		}
		if len(env) != 3 {
			t.Fatalf("sample %d: inputs %v, want x, y, z", i, p.Inputs)
		}
		if got := eval.Eval(e, env, width); got != p.Output {
			t.Fatalf("sample %d: replay %d != reported output %d", i, got, p.Output)
		}
	}

	// Default seed is fixed: the identical request reproduces the stream —
	// and, being deterministic, is answered from the verdict cache.
	again, err := cl.Classify(ctx, req)
	if err != nil {
		t.Fatalf("classify (repeat): %v", err)
	}
	if !again.Cached {
		t.Fatal("repeat classify with sampling was not served from cache")
	}
	if len(again.Samples) != len(resp.Samples) {
		t.Fatalf("cached repeat has %d samples, want %d", len(again.Samples), len(resp.Samples))
	}
	for i := range again.Samples {
		if again.Samples[i].Output != resp.Samples[i].Output {
			t.Fatalf("sample %d not deterministic across requests", i)
		}
	}

	// An explicit distinct seed draws a different stream.
	seeded, err := cl.Classify(ctx, service.ClassifyRequest{Expr: src, Width: width, Samples: 200, Seed: 7})
	if err != nil {
		t.Fatalf("classify (seed 7): %v", err)
	}
	same := true
	for i := range seeded.Samples {
		if seeded.Samples[i].Output != resp.Samples[i].Output {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 7 reproduced the default-seed stream")
	}

	// Over-cap requests are rejected, not clamped.
	if _, err := cl.Classify(ctx, service.ClassifyRequest{Expr: src, Samples: 100000}); err == nil {
		t.Fatal("over-cap sample count accepted")
	}
}

func TestBadRequests(t *testing.T) {
	svc, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	cases := []struct {
		name string
		call func() error
	}{
		{"parse error", func() error {
			_, err := cl.Simplify(ctx, service.SimplifyRequest{Expr: "x +* y"})
			return err
		}},
		{"empty expr", func() error {
			_, err := cl.Classify(ctx, service.ClassifyRequest{Expr: ""})
			return err
		}},
		{"bad width", func() error {
			_, err := cl.Solve(ctx, service.SolveRequest{A: "x", B: "x", Width: 65})
			return err
		}},
		{"bad solver", func() error {
			_, err := cl.Solve(ctx, service.SolveRequest{A: "x", B: "x", Solver: "z3"})
			return err
		}},
		{"bad basis", func() error {
			_, err := cl.Simplify(ctx, service.SimplifyRequest{Expr: "x", Basis: "weird"})
			return err
		}},
		{"negative timeout", func() error {
			_, err := cl.Solve(ctx, service.SolveRequest{A: "x", B: "x", TimeoutMS: -1})
			return err
		}},
	}
	for _, c := range cases {
		err := c.call()
		se, ok := err.(*client.StatusError)
		if !ok || se.Code != http.StatusBadRequest {
			t.Errorf("%s: got %v, want 400 StatusError", c.name, err)
		}
	}

	// Wrong method and malformed JSON, below the typed client.
	_ = svc
	res, err := http.Post(cl.Base()+service.PathSolve, "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatalf("raw post: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", res.StatusCode)
	}
	res, err = http.Get(cl.Base() + service.PathSimplify)
	if err != nil {
		t.Fatalf("raw get: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("GET on POST endpoint: status %d, want 400", res.StatusCode)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	svc, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := cl.Simplify(ctx, service.SimplifyRequest{Expr: "x&x"}); err != nil {
		t.Fatalf("simplify: %v", err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	ep, ok := m.Endpoints[service.PathSimplify]
	if !ok || ep.Requests != 1 || ep.Latency.Count != 1 {
		t.Fatalf("simplify endpoint stats %+v, want 1 request observed", ep)
	}
	if len(ep.Latency.Buckets) == 0 || !ep.Latency.Buckets[len(ep.Latency.Buckets)-1].Inf {
		t.Fatalf("latency histogram missing +Inf bucket: %+v", ep.Latency)
	}
	if m.Pool.Workers != 1 || m.Pool.Admitted != 1 {
		t.Fatalf("pool stats %+v, want workers=1 admitted=1", m.Pool)
	}
	if m.Verdicts == nil {
		t.Fatal("verdict map missing")
	}
	_ = svc
}

// TestGracefulShutdown: shutting down cancels a running solve through
// its budget, refuses new work with 503, and returns promptly.
func TestGracefulShutdown(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, MaxTimeout: time.Minute})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	type result struct {
		resp *service.SolveResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := cl.Solve(ctx, service.SolveRequest{
			A: "x*y", B: "(x&~y)*(~x&y) + (x&y)*(x|y)", Width: 64,
			TimeoutMS: 60_000, Conflicts: 1 << 40,
		})
		done <- result{resp, err}
	}()
	waitInFlight(t, svc, 1)

	start := time.Now()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v; in-flight solve was not cancelled", elapsed)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight solve errored: %v", r.err)
	}
	if r.resp.Status != "timeout" {
		t.Fatalf("cancelled solve status %s, want timeout", r.resp.Status)
	}

	// New work is refused with 503 and the health endpoint agrees.
	_, err := cl.Solve(ctx, service.SolveRequest{A: "x", B: "x"})
	se, ok := err.(*client.StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown solve: got %v, want 503", err)
	}
	if err := cl.Health(ctx); err == nil {
		t.Fatal("healthz still ok after shutdown")
	}
	// Second shutdown is an idempotent no-op.
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// waitInFlight polls until the pool reports n running tasks.
func waitInFlight(t *testing.T, svc *service.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Metrics().Pool.InFlight < n {
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached %d in-flight (now %d)", n, svc.Metrics().Pool.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

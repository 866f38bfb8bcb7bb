package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/smt"
)

func TestBatchEndpointVerdictsAndOrder(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()
	resp, err := cl.Batch(ctx, service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x+y", B: "(x|y)+(x&y)", Width: 8}},
		{Solve: &service.SolveRequest{A: "x", B: "x+1", Width: 8}},
		{Simplify: &service.SimplifyRequest{Expr: "(x&~y)+y", Width: 8}},
		{Solve: &service.SolveRequest{A: "x+y", B: "(x|y)+(x&y)", Width: 8}}, // dup of item 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("%d results for 4 items", len(resp.Items))
	}
	for i, it := range resp.Items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d", i, it.Index)
		}
		if it.Error != "" {
			t.Fatalf("item %d failed: %s", i, it.Error)
		}
	}
	if s := resp.Items[0].Solve; s == nil || s.Status != smt.Equivalent.String() {
		t.Fatalf("item 0: %+v, want equivalent", resp.Items[0].Solve)
	}
	if s := resp.Items[1].Solve; s == nil || s.Status != smt.NotEquivalent.String() || s.Witness == nil {
		t.Fatalf("item 1: %+v, want not-equivalent with witness", resp.Items[1].Solve)
	}
	if sp := resp.Items[2].Simplify; sp == nil || sp.Simplified == "" {
		t.Fatalf("item 2: %+v, want a simplification", resp.Items[2].Simplify)
	}
	// The duplicate pair runs once and fans out: 3 groups for 4 items,
	// the later member marked deduped with the identical verdict.
	if resp.Groups != 3 {
		t.Fatalf("groups = %d, want 3", resp.Groups)
	}
	if resp.Deduped != 1 || !resp.Items[3].Deduped {
		t.Fatalf("deduped = %d (item 3 deduped=%t), want the duplicate folded", resp.Deduped, resp.Items[3].Deduped)
	}
	if s := resp.Items[3].Solve; s == nil || s.Status != smt.Equivalent.String() {
		t.Fatalf("deduped item lost its verdict: %+v", resp.Items[3].Solve)
	}
	if resp.RequestID == "" {
		t.Fatal("batch response missing request id")
	}
}

// TestBatchSharesCacheWithSingleEndpoints: a verdict computed via
// /v1/solve must be a cache hit inside a later batch, and vice versa —
// the batch groups key on the same semantic digests as the single
// handlers.
func TestBatchSharesCacheWithSingleEndpoints(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	if _, err := cl.Solve(ctx, service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8}); err != nil {
		t.Fatal(err)
	}
	// Structurally identical query, different spelling order.
	resp, err := cl.Batch(ctx, service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "(x|y)-(x&y)", B: "x^y", Width: 8}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHits != 1 {
		t.Fatalf("batch cache hits = %d, want 1 (single-endpoint verdicts must be visible)", resp.CacheHits)
	}
	if s := resp.Items[0].Solve; s == nil || !s.Cached || s.Status != smt.Equivalent.String() {
		t.Fatalf("item not served from cache: %+v", resp.Items[0].Solve)
	}

	// And the other direction: a batch-computed verdict hits on /v1/solve.
	if _, err := cl.Batch(ctx, service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x*3", B: "x+x+x", Width: 8}},
	}}); err != nil {
		t.Fatal(err)
	}
	single, err := cl.Solve(ctx, service.SolveRequest{A: "x+x+x", B: "x*3", Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Fatal("batch verdict not visible to /v1/solve")
	}
}

// TestBatchClassifySampling: classify items ride the batch plane like
// the other kinds — textual variants dedup into one group, the sample
// payload arrives per item, and a deterministic (default-seeded) run
// is cached for the next batch.
func TestBatchClassifySampling(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()
	items := []service.BatchItem{
		{Classify: &service.ClassifyRequest{Expr: "(x&y)+z", Width: 8, Samples: 64}},
		{Solve: &service.SolveRequest{A: "x", B: "x", Width: 8}},
		{Classify: &service.ClassifyRequest{Expr: "z+(y&x)", Width: 8, Samples: 64}}, // same canonical expr as item 0
	}
	resp, err := cl.Batch(ctx, service.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range resp.Items {
		if it.Error != "" {
			t.Fatalf("item %d failed: %s", i, it.Error)
		}
	}
	c0 := resp.Items[0].Classify
	if c0 == nil || len(c0.Samples) != 64 || c0.Width != 8 {
		t.Fatalf("item 0: %+v, want 64 width-8 samples", c0)
	}
	if resp.Groups != 2 || !resp.Items[2].Deduped {
		t.Fatalf("groups=%d deduped(item2)=%t, want canonical classify dedup", resp.Groups, resp.Items[2].Deduped)
	}
	if c2 := resp.Items[2].Classify; c2 == nil || len(c2.Samples) != 64 {
		t.Fatalf("deduped item lost its samples: %+v", resp.Items[2].Classify)
	}

	// The same classify item in a fresh batch is a cache hit; a
	// different seed is a different fact and must miss.
	again, err := cl.Batch(ctx, service.BatchRequest{Items: []service.BatchItem{
		{Classify: &service.ClassifyRequest{Expr: "(x&y)+z", Width: 8, Samples: 64}},
		{Classify: &service.ClassifyRequest{Expr: "(x&y)+z", Width: 8, Samples: 64, Seed: 9}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", again.CacheHits)
	}
	if c := again.Items[0].Classify; c == nil || !c.Cached || len(c.Samples) != 64 {
		t.Fatalf("repeat classify not served from cache: %+v", again.Items[0].Classify)
	}
	if c := again.Items[1].Classify; c == nil || c.Cached {
		t.Fatalf("distinct-seed classify wrongly cached: %+v", again.Items[1].Classify)
	}

	// An item setting none of the kinds reports per-item.
	bad, err := cl.Batch(ctx, service.BatchRequest{Items: []service.BatchItem{{}}})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Items[0].Error == "" {
		t.Fatal("empty item not reported per-item")
	}
}

func TestBatchRejections(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	// Empty batch: 400.
	_, err := cl.Batch(ctx, service.BatchRequest{})
	if se, ok := err.(*client.StatusError); !ok || se.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %v, want 400", err)
	}

	// Over the cap: 400.
	big := service.BatchRequest{Items: make([]service.BatchItem, service.MaxBatchItems+1)}
	for i := range big.Items {
		big.Items[i].Solve = &service.SolveRequest{A: "x", B: "x", Width: 8}
	}
	_, err = cl.Batch(ctx, big)
	if se, ok := err.(*client.StatusError); !ok || se.Code != http.StatusBadRequest {
		t.Fatalf("oversize batch: %v, want 400", err)
	}

	// Malformed items answer per-item, not per-batch; an item-level
	// timeout is rejected because the deadline is shared.
	resp, err := cl.Batch(ctx, service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x +* y", B: "x", Width: 8}},
		{Solve: &service.SolveRequest{A: "x", B: "x", Width: 8, TimeoutMS: 1000}},
	}})
	if err != nil {
		t.Fatalf("batch with bad items must answer 200: %v", err)
	}
	if resp.Items[0].Error == "" {
		t.Fatal("parse error not reported per-item")
	}
	if resp.Items[1].Error == "" || resp.Items[1].Solve != nil {
		t.Fatalf("item-level timeout_ms accepted: %+v", resp.Items[1])
	}
}

// TestReadinessDrainThenProbe is the liveness/readiness split
// regression test: the moment Shutdown begins, /readyz must flip to
// 503 so load balancers stop routing, while /healthz keeps answering
// 200 so orchestrators do not kill the draining process — the exact
// sequence of a graceful rollout. Both surfaces hold those answers all
// the way through and after the drain.
func TestReadinessDrainThenProbe(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	ctx := context.Background()

	// Before drain: both green, and Health (readiness alias) agrees.
	if err := cl.Alive(ctx); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("readyz before drain: %v", err)
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// After (and during — closing flips at the top of Shutdown) the
	// drain: readiness refuses, liveness still answers.
	err := cl.Ready(ctx)
	se, ok := err.(*client.StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during/after drain: %v, want 503", err)
	}
	if err := cl.Alive(ctx); err != nil {
		t.Fatalf("healthz during/after drain: %v, want 200", err)
	}
	// The Health alias preserves the old contract: nil iff admitting.
	if err := cl.Health(ctx); err == nil {
		t.Fatal("Health() nil on a draining server; must track readiness")
	}
}

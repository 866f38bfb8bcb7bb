// Persistent-store integration tests: warm restarts served from disk,
// and the never-persist invariants enforced at both cache layers.
package service_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mbasolver/internal/fault"
	"mbasolver/internal/leakcheck"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/store"
)

// newHTTPClient mounts an already-built server (these tests construct
// their own, to thread a store through Config) behind an HTTP front.
func newHTTPClient(t *testing.T, svc *service.Server) *client.Client {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// shutdown drains a server; idempotent, so explicit mid-test restarts
// and deferred teardown can share it.
func shutdown(t *testing.T, svc *service.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// openStore opens a verdict store for a test server; the caller closes
// it explicitly (after the server's Shutdown) to model the ownership
// contract mbaserved follows.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreWarmRestart is the tentpole end-to-end: a node answers
// queries, restarts with the same store directory, and serves the same
// answers from disk without solving.
func TestStoreWarmRestart(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx := context.Background()
	dir := t.TempDir()

	st := openStore(t, dir)
	svc := service.New(service.Config{Workers: 2, Store: st})
	cl := newHTTPClient(t, svc)

	solve := service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8}
	simp := service.SimplifyRequest{Expr: "2*(x|y) - (~x&y) - (x&~y)", Width: 8}
	class := service.ClassifyRequest{Expr: "x&y", Width: 8, Samples: 4}

	r1, err := cl.Solve(ctx, solve)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != "equivalent" || r1.Cached {
		t.Fatalf("first solve: %+v", r1)
	}
	s1, err := cl.Simplify(ctx, simp)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := cl.Classify(ctx, class)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Samples) != 4 {
		t.Fatalf("classify samples = %d, want 4", len(c1.Samples))
	}
	if puts := svc.Metrics().Store.Puts; puts < 3 {
		t.Fatalf("store puts = %d, want >= 3", puts)
	}
	shutdown(t, svc)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh process state, same store directory.
	st2 := openStore(t, dir)
	defer func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if snap := st2.Snapshot(); snap.Recovered < 3 {
		t.Fatalf("recovered %d records, want >= 3 (%+v)", snap.Recovered, snap)
	}
	svc2 := service.New(service.Config{Workers: 2, Store: st2})
	cl2 := newHTTPClient(t, svc2)
	defer shutdown(t, svc2)

	r2, err := cl2.Solve(ctx, solve)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Status != r1.Status || r2.Solver != r1.Solver {
		t.Fatalf("restarted solve not served from store: %+v vs %+v", r2, r1)
	}
	s2, err := cl2.Simplify(ctx, simp)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Cached || s2.Simplified != s1.Simplified {
		t.Fatalf("restarted simplify not served from store: %+v", s2)
	}
	c2, err := cl2.Classify(ctx, class)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Cached || len(c2.Samples) != len(c1.Samples) || c2.Hash != c1.Hash {
		t.Fatalf("restarted classify not served from store: %+v", c2)
	}
	met := svc2.Metrics()
	if met.Store == nil || met.Store.Hits < 3 {
		t.Fatalf("store hits after restart: %+v", met.Store)
	}
	// A store hit is promoted into the LRU: the next repeat must not
	// touch the disk again.
	hitsBefore := met.Store.Hits
	if _, err := cl2.Solve(ctx, solve); err != nil {
		t.Fatal(err)
	}
	if svc2.Metrics().Store.Hits != hitsBefore {
		t.Fatal("repeat query bypassed the LRU promotion and re-read the store")
	}
}

// TestBatchServedFromStoreAfterRestart: the batch cache fallback reads
// the store too, so a restarted node answers a whole batch from disk.
func TestBatchServedFromStoreAfterRestart(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx := context.Background()
	dir := t.TempDir()

	st := openStore(t, dir)
	svc := service.New(service.Config{Workers: 2, Store: st})
	cl := newHTTPClient(t, svc)
	batch := service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8}},
		{Solve: &service.SolveRequest{A: "x|y", B: "x&y", Width: 8}},
		{Simplify: &service.SimplifyRequest{Expr: "2*(x|y) - (~x&y) - (x&~y)", Width: 8}},
	}}
	b1, err := cl.Batch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if b1.CacheHits != 0 {
		t.Fatalf("cold batch had %d cache hits", b1.CacheHits)
	}
	shutdown(t, svc)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	svc2 := service.New(service.Config{Workers: 2, Store: st2})
	cl2 := newHTTPClient(t, svc2)
	defer shutdown(t, svc2)

	b2, err := cl2.Batch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if b2.CacheHits != 3 {
		t.Fatalf("restarted batch cache hits = %d, want 3", b2.CacheHits)
	}
	for i, item := range b2.Items {
		switch {
		case item.Solve != nil:
			if !item.Solve.Cached || item.Solve.Status != b1.Items[i].Solve.Status {
				t.Fatalf("item %d: %+v vs %+v", i, item.Solve, b1.Items[i].Solve)
			}
		case item.Simplify != nil:
			if !item.Simplify.Cached || item.Simplify.Simplified != b1.Items[i].Simplify.Simplified {
				t.Fatalf("item %d: %+v", i, item.Simplify)
			}
		}
	}
}

// TestTruncatedClassifyNeverCachedAnywhere is the regression test for
// the "truncated sample blocks are never cached" rule at BOTH layers:
// with the task's stop flag raised at dispatch (simulated client
// disconnect), the short sample block must reach neither the LRU nor
// the persistent store.
func TestTruncatedClassifyNeverCachedAnywhere(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	defer fault.Disable()
	ctx := context.Background()

	st := openStore(t, t.TempDir())
	svc := service.New(service.Config{Workers: 1, Store: st})
	cl := newHTTPClient(t, svc)
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	defer shutdown(t, svc)

	if err := fault.EnableSpec("service.stop:hit=1"); err != nil {
		t.Fatal(err)
	}
	req := service.ClassifyRequest{Expr: "(x&y)|(x^y)", Width: 8, Samples: 64}
	r1, err := cl.Classify(ctx, req)
	fault.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Samples) == 64 {
		t.Fatalf("stop flag at dispatch still produced a full sample block (%d samples)", len(r1.Samples))
	}

	// Layer 1, the LRU: nothing cached.
	if hits := svc.Metrics().Cache.Entries; hits != 0 {
		t.Fatalf("truncated classify left %d LRU entries", hits)
	}
	// Layer 2, the store: no classify record persisted.
	st.Range(func(key string, _ []byte) bool {
		if strings.HasPrefix(key, "classify|") {
			t.Errorf("truncated classify persisted under %s", key)
		}
		return true
	})
	if n := st.Len(); n != 0 {
		t.Fatalf("store has %d entries after a truncated-only workload", n)
	}

	// The retry (fault disarmed) gets a full, uncached block — proof the
	// truncated answer was not served back from either layer.
	r2, err := cl.Classify(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached || len(r2.Samples) != 64 {
		t.Fatalf("retry after truncation: cached=%v samples=%d, want fresh full block", r2.Cached, len(r2.Samples))
	}
}

// TestStoreRejectsHandEditedTimeout plants an invariant-violating
// record of every kind directly in the store — a persisted timeout, a
// simplification whose verification timed out, a truncated sample
// block — and asks for it again on a fresh server, through the single
// endpoint and through /v1/batch: recall must refuse to serve or
// promote it, and the answer must be recomputed in full.
func TestStoreRejectsHandEditedTimeout(t *testing.T) {
	kinds := []struct {
		name   string
		item   service.BatchItem
		prefix string
		// plant rewrites the persisted record into the kind's
		// invariant-violating shape.
		plant func(rec map[string]any)
		// fresh reports whether an answer is a recomputed, full one.
		fresh func(r service.BatchItemResult) bool
	}{
		{
			name:   "solve",
			item:   service.BatchItem{Solve: &service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8}},
			prefix: "solve|",
			plant:  func(rec map[string]any) { rec["status"], rec["reason"] = "timeout", "budget" },
			fresh: func(r service.BatchItemResult) bool {
				return r.Solve != nil && !r.Solve.Cached && r.Solve.Status == "equivalent"
			},
		},
		{
			name:   "simplify-verify",
			item:   service.BatchItem{Simplify: &service.SimplifyRequest{Expr: "2*(x|y) - (~x&y) - (x&~y)", Width: 8, Verify: true}},
			prefix: "simplify|",
			plant:  func(rec map[string]any) { rec["verify"].(map[string]any)["status"] = "timeout" },
			fresh: func(r service.BatchItemResult) bool {
				return r.Simplify != nil && !r.Simplify.Cached &&
					r.Simplify.Verify != nil && r.Simplify.Verify.Status == "equivalent"
			},
		},
		{
			name:   "classify-samples",
			item:   service.BatchItem{Classify: &service.ClassifyRequest{Expr: "(x&y)|(x^y)", Width: 8, Samples: 16}},
			prefix: "classify|",
			plant:  func(rec map[string]any) { rec["samples"] = rec["samples"].([]any)[:3] },
			fresh: func(r service.BatchItemResult) bool {
				return r.Classify != nil && !r.Classify.Cached && len(r.Classify.Samples) == 16
			},
		},
	}
	for _, k := range kinds {
		for _, viaBatch := range []bool{false, true} {
			name := k.name + "/single"
			if viaBatch {
				name = k.name + "/batch"
			}
			t.Run(name, func(t *testing.T) {
				t.Cleanup(leakcheck.Check(t))
				st := openStore(t, t.TempDir())
				defer func() {
					if err := st.Close(); err != nil {
						t.Error(err)
					}
				}()

				// The real query persists a definitive record.
				svc := service.New(service.Config{Workers: 1, Store: st})
				if r := ask(t, newHTTPClient(t, svc), k.item, viaBatch); !k.fresh(r) {
					t.Fatalf("first answer not a fresh full one: %+v", r)
				}
				shutdown(t, svc)

				var key string
				var rec map[string]any
				st.Range(func(kk string, val []byte) bool {
					if strings.HasPrefix(kk, k.prefix) {
						key = kk
						if err := json.Unmarshal(val, &rec); err != nil {
							t.Fatalf("persisted record %s: %v", kk, err)
						}
					}
					return true
				})
				if key == "" {
					t.Fatalf("no %s record persisted", k.prefix)
				}
				k.plant(rec)
				bad, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				st.Put(key, bad)

				svc2 := service.New(service.Config{Workers: 1, Store: st})
				defer shutdown(t, svc2)
				if r := ask(t, newHTTPClient(t, svc2), k.item, viaBatch); !k.fresh(r) {
					t.Fatalf("hand-edited record served instead of recomputed: %+v", r)
				}
			})
		}
	}
}

// ask sends one item through its single endpoint or as a one-item
// batch and returns the answer in batch-item form.
func ask(t *testing.T, cl *client.Client, it service.BatchItem, viaBatch bool) service.BatchItemResult {
	t.Helper()
	ctx := context.Background()
	var r service.BatchItemResult
	var err error
	switch {
	case viaBatch:
		var resp *service.BatchResponse
		if resp, err = cl.Batch(ctx, service.BatchRequest{Items: []service.BatchItem{it}}); err == nil {
			r = resp.Items[0]
		}
	case it.Solve != nil:
		r.Solve, err = cl.Solve(ctx, *it.Solve)
	case it.Simplify != nil:
		r.Simplify, err = cl.Simplify(ctx, *it.Simplify)
	default:
		r.Classify, err = cl.Classify(ctx, *it.Classify)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

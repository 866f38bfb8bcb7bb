package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbasolver/internal/leakcheck"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/service"
	"mbasolver/internal/smt"
)

// fakeNode is a minimal mbaserved stand-in: answers /v1/batch with one
// Sat per item (Reason = its own name), /v1/solve with Sat, /readyz
// per its ready flag. down simulates a crashed process (connection
// refused is emulated with an immediate 502 from a wrapper — for true
// connection errors the chaos test kills real listeners). reply, when
// set, is the status /v1/solve answers with instead of a verdict.
type fakeNode struct {
	name    string
	ready   atomic.Bool
	down    atomic.Bool
	reply   atomic.Int64
	batches atomic.Int64
	singles atomic.Int64
	posts   atomic.Int64 // every /v1/solve request, down or not
	srv     *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{name: name}
	n.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc(service.PathBatch, func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		n.batches.Add(1)
		var req service.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := service.BatchResponse{RequestID: r.Header.Get(service.HeaderRequestID)}
		for i := range req.Items {
			resp.Items = append(resp.Items, service.BatchItemResult{
				Index: i,
				Solve: &service.SolveResponse{Status: smt.Equivalent.String(), Reason: name},
			})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc(service.PathSolve, func(w http.ResponseWriter, r *http.Request) {
		n.posts.Add(1)
		if n.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if code := int(n.reply.Load()); code != 0 {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"error":"%s says %d"}`, name, code)
			return
		}
		n.singles.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(service.SolveResponse{Status: smt.Equivalent.String(), Reason: name})
	})
	mux.HandleFunc(service.PathReady, func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() || !n.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

// testThreshold is the test routers' ejection threshold.
const testThreshold = 2

func newTestRouter(t *testing.T, probe time.Duration, nodes ...*fakeNode) *Router {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.srv.URL
	}
	rt, err := NewRouter(RouterConfig{
		Nodes:         urls,
		ProbeInterval: probe,
		ProbeTimeout:  time.Second,
		Health:        portfolio.BreakerOptions{Threshold: testThreshold, Cooldown: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postBatch(t *testing.T, h http.Handler, req service.BatchRequest) (*service.BatchResponse, *httptest.ResponseRecorder) {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathBatch, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, rec
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return &resp, rec
}

func TestRouterBatchRoutesAndReassembles(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2, n3 := newFakeNode(t, "n1"), newFakeNode(t, "n2"), newFakeNode(t, "n3")
	rt := newTestRouter(t, -1, n1, n2, n3)
	req := service.BatchRequest{}
	for i := 0; i < 12; i++ {
		req.Items = append(req.Items, solveItem(fmt.Sprintf("x+%d", i), "x"))
	}
	resp, rec := postBatch(t, rt.Handler(), req)
	if resp == nil {
		t.Fatalf("batch failed: %d %s", rec.Code, rec.Body.String())
	}
	if len(resp.Items) != 12 {
		t.Fatalf("got %d items, want 12", len(resp.Items))
	}
	served := map[string]bool{}
	for i, it := range resp.Items {
		if it.Index != i || it.Solve == nil {
			t.Fatalf("item %d misassembled: %+v", i, it)
		}
		served[it.Solve.Reason] = true
	}
	if len(served) < 2 {
		t.Fatalf("12 distinct items all served by %v — ring not splitting", served)
	}
	if resp.RequestID == "" {
		t.Fatal("batch response missing request ID")
	}
	if rec.Header().Get(service.HeaderRequestID) == "" {
		t.Fatal("router did not echo X-Request-ID")
	}
}

func TestRouterBatchFailover(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2, n3 := newFakeNode(t, "n1"), newFakeNode(t, "n2"), newFakeNode(t, "n3")
	rt := newTestRouter(t, -1, n1, n2, n3)
	n2.down.Store(true)
	// Generate items until the dead node owns at least two, so the test
	// provably exercises failover regardless of hash placement.
	req := service.BatchRequest{}
	owned := 0
	for i := 0; owned < 2 && i < 1000; i++ {
		it := solveItem(fmt.Sprintf("y+%d", i), "y")
		key, err := it.RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Lookup(key) == n2.srv.URL {
			owned++
		}
		req.Items = append(req.Items, it)
	}
	if owned < 2 {
		t.Fatalf("could not construct items owned by the dead node")
	}
	resp, rec := postBatch(t, rt.Handler(), req)
	if resp == nil {
		t.Fatalf("batch failed: %d %s", rec.Code, rec.Body.String())
	}
	for i, it := range resp.Items {
		if it.Solve == nil || it.Solve.Status != smt.Equivalent.String() {
			t.Fatalf("item %d lost to dead node: %+v", i, it)
		}
		if it.Solve.Reason == "n2" {
			t.Fatalf("item %d claims to be served by the dead node", i)
		}
	}
	snap := rt.Snapshot()
	if snap.Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead node")
	}
}

func TestRouterSingleFailover(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	rt := newTestRouter(t, -1, n1, n2)
	n1.down.Store(true)
	n2.down.Store(false)

	body, _ := json.Marshal(service.SolveRequest{A: "x+y", B: "x|y", Width: 8})
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathSolve, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("single solve failed: %d %s", rec.Code, rec.Body.String())
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Reason != "n2" {
		t.Fatalf("served by %q, want the live node n2", resp.Reason)
	}
}

// postSolve sends one routed /v1/solve.
func postSolve(h http.Handler, req service.SolveRequest) *httptest.ResponseRecorder {
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathSolve, bytes.NewReader(body)))
	return rec
}

// byURL indexes fake nodes by base URL.
func byURL(nodes ...*fakeNode) map[string]*fakeNode {
	m := make(map[string]*fakeNode, len(nodes))
	for _, n := range nodes {
		m[n.srv.URL] = n
	}
	return m
}

func TestRouterSingleRoutesToOwner(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	nodes := []*fakeNode{newFakeNode(t, "n1"), newFakeNode(t, "n2"), newFakeNode(t, "n3")}
	rt := newTestRouter(t, -1, nodes...)
	owners := byURL(nodes...)
	for i := 0; i < 12; i++ {
		req := service.SolveRequest{A: fmt.Sprintf("x*%d", i), B: "x", Width: 8}
		key, err := service.BatchItem{Solve: &req}.RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		want := owners[rt.Ring().Lookup(key)].name
		rec := postSolve(rt.Handler(), req)
		var resp service.SolveResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("solve %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if resp.Reason != want {
			t.Fatalf("solve %d served by %s, want its ring owner %s", i, resp.Reason, want)
		}
	}
	if got := rt.Snapshot().Forwarded; got != 12 {
		t.Fatalf("%d forwards for 12 healthy-owner solves, want 12", got)
	}
}

// TestRouterSingleRelaysNodeAnswers checks that a node's own refusals
// (400, and 429 with Retry-After) reach the caller verbatim: no
// failover to another replica, and no health failure charged to the
// node.
func TestRouterSingleRelaysNodeAnswers(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	nodes := []*fakeNode{newFakeNode(t, "n1"), newFakeNode(t, "n2"), newFakeNode(t, "n3")}
	rt := newTestRouter(t, -1, nodes...)
	req := service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8}
	for _, code := range []int{http.StatusBadRequest, http.StatusTooManyRequests} {
		for _, n := range nodes {
			n.reply.Store(int64(code))
			n.posts.Store(0)
		}
		// Threshold answers in a row would eject the owner if any of
		// them counted as a failure.
		for i := 0; i < testThreshold; i++ {
			rec := postSolve(rt.Handler(), req)
			if rec.Code != code {
				t.Fatalf("routed solve answered %d, want the node's %d", rec.Code, code)
			}
			if !strings.HasSuffix(strings.TrimSpace(rec.Body.String()), fmt.Sprintf(`says %d"}`, code)) {
				t.Fatalf("body %q is not the node's", rec.Body.String())
			}
			if code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") != "1" {
				t.Fatalf("Retry-After %q, want the node's 1", rec.Header().Get("Retry-After"))
			}
		}
		var posts int64
		for _, n := range nodes {
			posts += n.posts.Load()
		}
		if posts != testThreshold {
			t.Fatalf("%d node requests for %d solves answered %d: the router failed over", posts, testThreshold, code)
		}
		for node, state := range rt.Snapshot().Nodes {
			if state != "healthy" {
				t.Fatalf("node %s is %s after answering %d", node, state, code)
			}
		}
	}
	if got := rt.Snapshot().Failovers; got != 0 {
		t.Fatalf("%d failovers on verbatim answers, want 0", got)
	}
}

// TestRouterSingleWalkTriesEveryReplicaOnce: the key's first two
// replicas are down (each already one failure into its streak) and
// the third is ejected but alive. The walk must reach the third after
// the first two eject mid-walk, and never try a node twice.
func TestRouterSingleWalkTriesEveryReplicaOnce(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	nodes := []*fakeNode{newFakeNode(t, "n1"), newFakeNode(t, "n2"), newFakeNode(t, "n3")}
	rt := newTestRouter(t, -1, nodes...)
	owners := byURL(nodes...)
	req := service.SolveRequest{A: "x+y", B: "(x^y)+2*(x&y)", Width: 8}
	key, err := service.BatchItem{Solve: &req}.RouteKey()
	if err != nil {
		t.Fatal(err)
	}
	seq := rt.Ring().Sequence(key)
	for _, node := range seq[:2] {
		rt.breakers[node].ReportFailure()
		owners[node].down.Store(true)
	}
	for i := 0; i < testThreshold; i++ {
		rt.breakers[seq[2]].ReportFailure()
	}
	if !rt.breakers[seq[2]].Open() {
		t.Fatal("third replica not ejected")
	}

	rec := postSolve(rt.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed solve answered %d %s, want 200 from the live replica", rec.Code, rec.Body.String())
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := owners[seq[2]].name; resp.Reason != want {
		t.Fatalf("served by %q, want the live replica %s", resp.Reason, want)
	}
	var forwards int64
	for _, n := range nodes {
		if got := n.posts.Load(); got > 1 {
			t.Fatalf("node %s forwarded to %d times", n.name, got)
		}
		forwards += n.posts.Load()
	}
	if forwards > int64(len(seq)) {
		t.Fatalf("%d forwards, more than the %d replicas", forwards, len(seq))
	}
}

// TestRouterDegradedCountsRouterDegradations: the degraded counter
// counts exactly the items the router itself degraded — simplify
// items included — and not a node's own "unavailable" answers.
func TestRouterDegradedCountsRouterDegradations(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	rt := newTestRouter(t, -1, n1, n2)
	n1.down.Store(true)
	n2.down.Store(true)
	resp, rec := postBatch(t, rt.Handler(), service.BatchRequest{
		Items: []service.BatchItem{{Simplify: &service.SimplifyRequest{Expr: "x&y", Width: 8}}},
	})
	if resp == nil {
		t.Fatalf("batch answered %d, want 200 with a degraded item", rec.Code)
	}
	if !strings.Contains(resp.Items[0].Error, service.ReasonUnavailable) {
		t.Fatalf("simplify item error %q missing reason", resp.Items[0].Error)
	}
	if got := rt.Snapshot().Degraded; got != 1 {
		t.Fatalf("degraded = %d after one router-degraded simplify item, want 1", got)
	}

	// A node whose verdicts carry the reason "unavailable" stands for
	// a node shedding the group: its answer is not the router's
	// degradation.
	shed := newFakeNode(t, service.ReasonUnavailable)
	rt2 := newTestRouter(t, -1, shed)
	resp, rec = postBatch(t, rt2.Handler(), service.BatchRequest{
		Items: []service.BatchItem{solveItem("x|y", "y|x")},
	})
	if resp == nil || resp.Items[0].Solve == nil || resp.Items[0].Solve.Reason != service.ReasonUnavailable {
		t.Fatalf("node answer not relayed: %d %s", rec.Code, rec.Body.String())
	}
	if got := rt2.Snapshot().Degraded; got != 0 {
		t.Fatalf("degraded = %d for a node-side answer, want 0", got)
	}
}

// TestRouterMalformedItemErrorsMatchNode: a malformed item the router
// answers locally carries the error a real node gives the same item.
func TestRouterMalformedItemErrorsMatchNode(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	svc := service.New(service.Config{Workers: 1})
	node := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	rt, err := NewRouter(RouterConfig{Nodes: []string{node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	items := []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x +* y", B: "x", Width: 8}},
		{Solve: &service.SolveRequest{A: "x", B: "(y", Width: 8}},
		{Simplify: &service.SimplifyRequest{Expr: "x &", Width: 8}},
		{Classify: &service.ClassifyRequest{Expr: "~", Width: 8}},
		{Solve: &service.SolveRequest{A: "x", B: "x"}, Simplify: &service.SimplifyRequest{Expr: "x"}},
		{},
		{Simplify: &service.SimplifyRequest{Expr: "x&y", Basis: "both"}},
		{Solve: &service.SolveRequest{A: "x", B: "x", Conflicts: -1}},
		{Solve: &service.SolveRequest{A: "x", B: "x", TimeoutMS: 5}},
		{Classify: &service.ClassifyRequest{Expr: "x", Samples: -1}},
	}
	req := service.BatchRequest{Items: items}
	direct, rec := postBatch(t, svc.Handler(), req)
	if direct == nil {
		t.Fatalf("node answered %d %s", rec.Code, rec.Body.String())
	}
	routed, rec := postBatch(t, rt.Handler(), req)
	if routed == nil {
		t.Fatalf("router answered %d %s", rec.Code, rec.Body.String())
	}
	for i := range items {
		if direct.Items[i].Error == "" {
			t.Fatalf("item %d: node accepted a malformed item: %+v", i, direct.Items[i])
		}
		if routed.Items[i].Error != direct.Items[i].Error {
			t.Errorf("item %d: router error %q, node error %q", i, routed.Items[i].Error, direct.Items[i].Error)
		}
		if routed.Items[i].Node != "" {
			t.Errorf("item %d was forwarded to %s; malformed items are answered locally", i, routed.Items[i].Node)
		}
	}
	if got := rt.Snapshot().Forwarded; got != 0 {
		t.Fatalf("%d sub-batches forwarded for an all-malformed batch, want 0", got)
	}
}

// TestRouterRefusesMalformedSingleBeforeForwarding: a single request
// the node would refuse (an unknown field, a negative timeout_ms) gets
// the node's own 400 from the router, without a forward.
func TestRouterRefusesMalformedSingleBeforeForwarding(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	svc := service.New(service.Config{Workers: 1})
	node := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	rt, err := NewRouter(RouterConfig{Nodes: []string{node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	post := func(h http.Handler, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathSolve, strings.NewReader(body)))
		return rec
	}
	for _, body := range []string{
		`{"a":"x","b":"x","width":8,"bogus":1}`,
		`{"a":"x","b":"x","width":8,"timeout_ms":-1}`,
	} {
		direct, routed := post(svc.Handler(), body), post(rt.Handler(), body)
		if direct.Code != http.StatusBadRequest || routed.Code != http.StatusBadRequest {
			t.Fatalf("%s: node answered %d, router %d, want 400 from both", body, direct.Code, routed.Code)
		}
		if routed.Body.String() != direct.Body.String() {
			t.Errorf("%s: router answered %s, node %s", body, routed.Body.String(), direct.Body.String())
		}
	}
	if got := rt.Snapshot().Forwarded; got != 0 {
		t.Fatalf("%d malformed single requests forwarded, want 0", got)
	}
}

func TestRouterAllNodesDownDegrades(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	rt := newTestRouter(t, -1, n1, n2)
	n1.down.Store(true)
	n2.down.Store(true)

	// Batch: reasoned Unknowns, HTTP 200.
	resp, rec := postBatch(t, rt.Handler(), service.BatchRequest{
		Items: []service.BatchItem{solveItem("x+y", "x|y")},
	})
	if resp == nil {
		t.Fatalf("batch answered %d, want 200 with degraded items", rec.Code)
	}
	it := resp.Items[0]
	if it.Solve == nil || it.Solve.Status != smt.Unknown.String() || it.Solve.Reason != service.ReasonUnavailable {
		t.Fatalf("want reasoned Unknown, got %+v", it.Solve)
	}

	// Single: 503 with the reason.
	body, _ := json.Marshal(service.SolveRequest{A: "x", B: "x", Width: 8})
	rec2 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, service.PathSolve, bytes.NewReader(body)))
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("single answered %d, want 503", rec2.Code)
	}
}

// TestRouterFailoversCountRetries checks that a failover is counted
// only when a failed forward is followed by a try on another replica:
// with both nodes of a two-node cluster down, a single request and a
// one-item batch each try both nodes, so each fails over once.
func TestRouterFailoversCountRetries(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	n1.down.Store(true)
	n2.down.Store(true)

	rt := newTestRouter(t, -1, n1, n2)
	if rec := postSolve(rt.Handler(), service.SolveRequest{A: "x", B: "x", Width: 8}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("single answered %d, want 503", rec.Code)
	}
	if tried := n1.posts.Load() + n2.posts.Load(); tried != 2 {
		t.Fatalf("single tried %d nodes, want 2", tried)
	}
	if got := rt.Snapshot().Failovers; got != 1 {
		t.Fatalf("single: %d failovers, want 1", got)
	}

	rt = newTestRouter(t, -1, n1, n2)
	if resp, rec := postBatch(t, rt.Handler(), service.BatchRequest{Items: []service.BatchItem{solveItem("x+y", "x|y")}}); resp == nil {
		t.Fatalf("batch answered %d, want 200 with a degraded item", rec.Code)
	}
	if snap := rt.Snapshot(); snap.Forwarded != 2 || snap.Failovers != 1 {
		t.Fatalf("one-item batch: %d forwards and %d failovers, want 2 and 1", snap.Forwarded, snap.Failovers)
	}
}

func TestRouterReadyReflectsNodeHealth(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1 := newFakeNode(t, "n1")
	rt := newTestRouter(t, -1, n1)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, service.PathReady, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d with healthy nodes", rec.Code)
	}
	// Eject the only node via passive failures.
	rt.breakers[n1.srv.URL].ReportFailure()
	rt.breakers[n1.srv.URL].ReportFailure()
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, service.PathReady, nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with zero routable nodes, want 503", rec.Code)
	}
	// Liveness stays 200 regardless.
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, service.PathHealth, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 always", rec.Code)
	}
}

// TestRouterNodeBreakers: a node's breaker ejects it at the threshold,
// not before, and leaves the other nodes alone; /debug/metrics names
// the states healthy, ejected and probing and sums the ejects; a
// probing node still takes traffic.
func TestRouterNodeBreakers(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	if got := (RouterConfig{}).withDefaults().Health.Cooldown; got != 500*time.Millisecond {
		t.Fatalf("default node cooldown %v, want 500ms", got)
	}
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	rt := newTestRouter(t, -1, n1, n2)
	a, b := n1.srv.URL, n2.srv.URL
	metrics := func() RouterSnapshot {
		t.Helper()
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, service.PathMetrics, nil))
		var snap RouterSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("decoding /debug/metrics: %v", err)
		}
		return snap
	}

	for i := 0; i < testThreshold-1; i++ {
		rt.breakers[a].ReportFailure()
	}
	if snap := metrics(); snap.Nodes[a] != "healthy" || snap.Ejects != 0 {
		t.Fatalf("below threshold: nodes %v ejects %d, want %s healthy and no ejects", snap.Nodes, snap.Ejects, a)
	}
	rt.breakers[a].ReportFailure()
	if snap := metrics(); snap.Nodes[a] != "ejected" || snap.Nodes[b] != "healthy" || snap.Ejects != 1 {
		t.Fatalf("at threshold: nodes %v ejects %d, want %s ejected, %s healthy, 1 eject", snap.Nodes, snap.Ejects, a, b)
	}

	time.Sleep(60 * time.Millisecond) // the test routers' cooldown is 50ms
	if !rt.breakers[a].Allow() {
		t.Fatal("cooldown elapsed: readmission probe refused")
	}
	if got := metrics().Nodes[a]; got != "probing" {
		t.Fatalf("state %q during the readmission probe, want probing", got)
	}
	key := "k"
	for rt.Ring().Lookup(key) != a {
		key += "k"
	}
	walk := newReplicaWalk(rt.Ring(), key)
	if got := walk.next(rt.breakers); got != a {
		t.Fatalf("walk from %s's key went to %s, want the probing owner", a, got)
	}
	if rt.breakers[a].Allow() {
		t.Fatal("second probe admitted: the walk must not take the probe slot")
	}
	for i := 0; i < 3; i++ {
		if !rt.breakers[b].Allow() {
			t.Fatal("healthy node not probed")
		}
	}
}

func TestRouterProberEjectsAndReadmits(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	rt := newTestRouter(t, 20*time.Millisecond, n1, n2)
	n1.ready.Store(false) // draining: alive but must leave rotation

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Snapshot().Nodes[n1.srv.URL] == "ejected" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := rt.Snapshot().Nodes[n1.srv.URL]; got != "ejected" {
		t.Fatalf("draining node state %q, want ejected", got)
	}

	n1.ready.Store(true) // node recovered
	for time.Now().Before(deadline) {
		if rt.Snapshot().Nodes[n1.srv.URL] == "healthy" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("recovered node never readmitted; state %q", rt.Snapshot().Nodes[n1.srv.URL])
}

func TestRouterRejectsOversizeBatch(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1 := newFakeNode(t, "n1")
	urls := []string{n1.srv.URL}
	rt, err := NewRouter(RouterConfig{Nodes: urls, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	req := service.BatchRequest{}
	for i := 0; i <= service.MaxBatchItems; i++ {
		req.Items = append(req.Items, solveItem(fmt.Sprintf("x+%d", i), "x"))
	}
	_, rec := postBatch(t, rt.Handler(), req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversize batch answered %d, want 400", rec.Code)
	}
}

// TestRouterAndNodeShareBatchCap: the router admits exactly the batches
// a node admits. One item over the cap is refused by the router before
// anything is forwarded; a full-cap batch through a one-node router
// reaches a real node whole and is answered, three times over (the
// default ejection threshold) without ejecting the node. With a router
// cap looser than the node's, every item of an oversize batch came
// back unavailable and the node's 400s ejected it.
func TestRouterAndNodeShareBatchCap(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	svc := service.New(service.Config{Workers: 2})
	node := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	rt, err := NewRouter(RouterConfig{Nodes: []string{node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	req := service.BatchRequest{}
	for i := 0; i <= service.MaxBatchItems; i++ {
		req.Items = append(req.Items, service.BatchItem{Simplify: &service.SimplifyRequest{Expr: fmt.Sprintf("(x|y)+%d", i), Width: 8}})
	}
	if _, rec := postBatch(t, rt.Handler(), req); rec.Code != http.StatusBadRequest {
		t.Fatalf("cap+1 batch answered %d, want 400", rec.Code)
	}
	if got := rt.Snapshot().Forwarded; got != 0 {
		t.Fatalf("cap+1 batch forwarded %d sub-batches, want 0", got)
	}

	req.Items = req.Items[:service.MaxBatchItems]
	for round := 0; round < 3; round++ {
		resp, rec := postBatch(t, rt.Handler(), req)
		if resp == nil {
			t.Fatalf("round %d: full-cap batch answered %d %s", round, rec.Code, rec.Body.String())
		}
		for i, it := range resp.Items {
			if it.Error != "" || it.Simplify == nil {
				t.Fatalf("round %d item %d: %+v, want a simplification", round, i, it)
			}
		}
	}
	if snap := rt.Snapshot(); snap.Degraded != 0 || snap.Nodes[node.URL] != "healthy" {
		t.Fatalf("after full-cap batches: degraded=%d node=%q, want 0 and healthy", snap.Degraded, snap.Nodes[node.URL])
	}
}

// TestRouterAndNodeShareBodyCap puts a real node behind a one-node
// router and posts /v1/batch bodies near service.MaxBodyBytes, of items
// full of '&', which an HTML-escaping encoder writes as six bytes. A
// body just under the cap must come back whole with the node healthy;
// one just over it must get 400 without reaching the node.
func TestRouterAndNodeShareBodyCap(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	svc := service.New(service.Config{Workers: 2})
	node := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	rt, err := NewRouter(RouterConfig{Nodes: []string{node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	// body encodes MaxBatchItems simplify items of about perItem bytes
	// each, '&' written as itself.
	body := func(perItem int) []byte {
		and := strings.Repeat("x&y&", perItem/4)
		req := service.BatchRequest{}
		for i := 0; i < service.MaxBatchItems; i++ {
			req.Items = append(req.Items, service.BatchItem{Simplify: &service.SimplifyRequest{Expr: fmt.Sprintf("%sx+%d", and, i), Width: 8}})
		}
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathBatch, bytes.NewReader(body)))
		return rec
	}

	near := body(service.MaxBodyBytes/service.MaxBatchItems - 64)
	if len(near) > service.MaxBodyBytes || len(near) < service.MaxBodyBytes-32<<10 {
		t.Fatalf("near-cap body is %d bytes, cap %d", len(near), service.MaxBodyBytes)
	}
	rec := post(near)
	if rec.Code != http.StatusOK {
		t.Fatalf("near-cap body answered %d %s", rec.Code, rec.Body.String())
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	for i, it := range resp.Items {
		if it.Error != "" || it.Simplify == nil {
			t.Fatalf("item %d: %+v, want a simplification", i, it)
		}
	}
	snap := rt.Snapshot()
	if snap.Degraded != 0 || snap.Nodes[node.URL] != "healthy" {
		t.Fatalf("after near-cap body: degraded=%d node=%q, want 0 and healthy", snap.Degraded, snap.Nodes[node.URL])
	}

	over := body(service.MaxBodyBytes / service.MaxBatchItems)
	if len(over) <= service.MaxBodyBytes {
		t.Fatalf("over-cap body is %d bytes, cap %d", len(over), service.MaxBodyBytes)
	}
	if rec := post(over); rec.Code != http.StatusBadRequest {
		t.Fatalf("over-cap body answered %d, want 400", rec.Code)
	}
	if got := rt.Snapshot().Forwarded - snap.Forwarded; got != 0 {
		t.Fatalf("over-cap body forwarded %d sub-batches, want 0", got)
	}
}

// TestRouterRefusesUnknownSolverBeforeForwarding posts a batch under
// the body cap whose solve items name a solver of 1200 U+2028
// characters. JSON encoders escape U+2028 in six bytes where the
// client sent three, so a router that forwarded these items would
// re-encode them past the node's body cap, get 400 back and degrade
// every item as unavailable, ejecting a healthy node. The router must
// instead refuse each item with the node's own unknown-solver error and
// forward nothing.
func TestRouterRefusesUnknownSolverBeforeForwarding(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	svc := service.New(service.Config{Workers: 2})
	node := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	rt, err := NewRouter(RouterConfig{Nodes: []string{node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	// The body is written by hand: encoding/json would escape U+2028.
	item := `{"solve":{"a":"x","b":"x","width":8,"solver":"` + strings.Repeat("\u2028", 1200) + `"}}`
	items := make([]string, service.MaxBatchItems)
	for i := range items {
		items[i] = item
	}
	body := []byte(`{"items":[` + strings.Join(items, ",") + "]}\n")
	if len(body) != 934_412 {
		t.Fatalf("body is %d bytes, want 934412", len(body))
	}
	for round := 0; round < 3; round++ {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, service.PathBatch, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: answered %d %s", round, rec.Code, rec.Body.String())
		}
		var resp service.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("round %d: decoding batch response: %v", round, err)
		}
		if len(resp.Items) != service.MaxBatchItems {
			t.Fatalf("round %d: %d items, want %d", round, len(resp.Items), service.MaxBatchItems)
		}
		for i, it := range resp.Items {
			if !strings.HasPrefix(it.Error, "unknown solver") || it.Solve != nil {
				t.Fatalf("round %d item %d: %+v, want the unknown-solver error", round, i, it)
			}
		}
	}
	snap := rt.Snapshot()
	if snap.Degraded != 0 || snap.Forwarded != 0 || snap.Nodes[node.URL] != "healthy" {
		t.Fatalf("degraded=%d forwarded=%d node=%q, want 0, 0 and healthy", snap.Degraded, snap.Forwarded, snap.Nodes[node.URL])
	}
}

func TestRouterCloseIdempotent(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1 := newFakeNode(t, "n1")
	rt := newTestRouter(t, 10*time.Millisecond, n1)
	rt.Close()
	rt.Close() // second close must not panic or deadlock
	_ = context.Background()
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mbasolver/internal/service"
	"mbasolver/internal/smt"
)

func testRing(t *testing.T, nodes ...string) *Ring {
	t.Helper()
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func solveItem(a, b string) service.BatchItem {
	return service.BatchItem{Solve: &service.SolveRequest{A: a, B: b, Width: 8}}
}

// echoSend answers every item with a Sat verdict labelled by node, so
// tests can see which node served which item.
func echoSend(calls *sync.Map) SendFunc {
	return func(ctx context.Context, node string, req *service.BatchRequest) ([]byte, error) {
		if calls != nil {
			v, _ := calls.LoadOrStore(node, new([]int))
			_ = v
		}
		resp := &service.BatchResponse{Groups: len(req.Items)}
		for i := range req.Items {
			resp.Items = append(resp.Items, service.BatchItemResult{
				Index: i,
				Solve: &service.SolveResponse{Status: smt.Equivalent.String(), Reason: node},
			})
		}
		return json.Marshal(resp)
	}
}

// execute runs ExecuteBatch and decodes the reply's wire form.
func execute(t *testing.T, ring *Ring, req *service.BatchRequest, send SendFunc, opts ExecuteOptions) *service.BatchResponse {
	t.Helper()
	reply, _, _ := ExecuteBatch(context.Background(), ring, req, send, opts)
	var resp service.BatchResponse
	if err := json.Unmarshal(reply.AppendJSON(nil, 0, ""), &resp); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	return &resp
}

func TestExecuteBatchOrderAndSharding(t *testing.T) {
	ring := testRing(t, "n1", "n2", "n3")
	req := &service.BatchRequest{}
	for i := 0; i < 12; i++ {
		req.Items = append(req.Items, solveItem(fmt.Sprintf("x+%d", i), "x"))
	}
	resp := execute(t, ring, req, echoSend(nil), ExecuteOptions{})
	if len(resp.Items) != 12 {
		t.Fatalf("got %d items, want 12", len(resp.Items))
	}
	for i, it := range resp.Items {
		if it.Index != i {
			t.Fatalf("item %d has Index %d: order not preserved", i, it.Index)
		}
		if it.Solve == nil || it.Solve.Status != smt.Equivalent.String() {
			t.Fatalf("item %d not answered: %+v", i, it)
		}
		// The node that served the item must be the digest's ring owner.
		key, err := req.Items[i].RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		if want := ring.Lookup(key); it.Node != want {
			t.Fatalf("item %d served by %q, ring owner is %q", i, it.Node, want)
		}
		if it.Solve.Reason != it.Node {
			t.Fatalf("item %d: Node field %q disagrees with serving node %q", i, it.Node, it.Solve.Reason)
		}
	}
	if resp.Groups != 12 {
		t.Fatalf("Groups = %d, want 12", resp.Groups)
	}
}

// TestExecuteBatchIdenticalItemsShareNode checks the locality claim:
// structurally identical items (even with different spellings that
// canonicalize together) always land on one node.
func TestExecuteBatchIdenticalItemsShareNode(t *testing.T) {
	ring := testRing(t, "n1", "n2", "n3")
	req := &service.BatchRequest{Items: []service.BatchItem{
		solveItem("x+y", "(x|y)+(x&y)"),
		solveItem("x+y", "(x|y)+(x&y)"),
		solveItem("(x|y)+(x&y)", "x+y"), // order-normalized: same key
	}}
	resp := execute(t, ring, req, echoSend(nil), ExecuteOptions{})
	for i := 1; i < len(resp.Items); i++ {
		if resp.Items[i].Node != resp.Items[0].Node {
			t.Fatalf("identical items split across nodes %q and %q", resp.Items[0].Node, resp.Items[i].Node)
		}
	}
}

func TestExecuteBatchFailover(t *testing.T) {
	ring := testRing(t, "n1", "n2", "n3")
	req := &service.BatchRequest{}
	for i := 0; i < 9; i++ {
		req.Items = append(req.Items, solveItem(fmt.Sprintf("y*%d", i+2), "y"))
	}
	// n2 is down; everything it owns must fail over, and never be
	// retried on n2 twice.
	var mu sync.Mutex
	sends := make(map[string]int)
	down := "n2"
	send := func(ctx context.Context, node string, sub *service.BatchRequest) ([]byte, error) {
		mu.Lock()
		sends[node] += len(sub.Items)
		mu.Unlock()
		if node == down {
			return nil, fmt.Errorf("connection refused")
		}
		return echoSend(nil)(ctx, node, sub)
	}
	var reports []string
	resp := execute(t, ring, req, send, ExecuteOptions{
		Report: func(node string, ok bool) {
			mu.Lock()
			reports = append(reports, fmt.Sprintf("%s=%t", node, ok))
			mu.Unlock()
		},
	})
	for i, it := range resp.Items {
		if it.Solve == nil || it.Solve.Status != smt.Equivalent.String() {
			t.Fatalf("item %d not answered despite live replicas: %+v", i, it)
		}
		if it.Node == down {
			t.Fatalf("item %d attributed to the dead node", i)
		}
	}
	// Each item owned by n2 is sent there at most once (never the same
	// dead node twice for one item).
	keyOwned := 0
	for _, it := range req.Items {
		key, _ := it.RouteKey()
		if ring.Lookup(key) == down {
			keyOwned++
		}
	}
	if sends[down] > keyOwned {
		t.Fatalf("dead node received %d item-sends, only owns %d items", sends[down], keyOwned)
	}
	foundFailure := false
	for _, r := range reports {
		if strings.HasPrefix(r, down+"=false") {
			foundFailure = true
		}
	}
	if keyOwned > 0 && !foundFailure {
		t.Fatalf("no failure reported for dead node; reports: %v", reports)
	}
}

func TestExecuteBatchAllNodesDownDegrades(t *testing.T) {
	ring := testRing(t, "n1", "n2")
	req := &service.BatchRequest{Items: []service.BatchItem{
		solveItem("x+y", "x|y"),
		{Simplify: &service.SimplifyRequest{Expr: "x&y", Width: 8}},
	}}
	send := func(ctx context.Context, node string, sub *service.BatchRequest) ([]byte, error) {
		return nil, fmt.Errorf("refused")
	}
	resp := execute(t, ring, req, send, ExecuteOptions{})
	s := resp.Items[0]
	if s.Solve == nil || s.Solve.Status != smt.Unknown.String() || s.Solve.Reason != service.ReasonUnavailable {
		t.Fatalf("solve item not degraded to reasoned Unknown: %+v", s.Solve)
	}
	if !strings.Contains(resp.Items[1].Error, service.ReasonUnavailable) {
		t.Fatalf("simplify item error %q missing reason", resp.Items[1].Error)
	}
}

func TestExecuteBatchAllowFallback(t *testing.T) {
	// Health disallows every node; the engine must still try them
	// (answering beats refusing) and succeed.
	ring := testRing(t, "n1", "n2")
	req := &service.BatchRequest{Items: []service.BatchItem{solveItem("x^y", "(x|y)-(x&y)")}}
	resp := execute(t, ring, req, echoSend(nil), ExecuteOptions{
		Allow: func(string) bool { return false },
	})
	if resp.Items[0].Solve == nil || resp.Items[0].Solve.Status != smt.Equivalent.String() {
		t.Fatalf("item refused although a node could answer: %+v", resp.Items[0])
	}
}

func TestExecuteBatchMalformedItemLocalError(t *testing.T) {
	ring := testRing(t, "n1")
	sent := 0
	send := func(ctx context.Context, node string, sub *service.BatchRequest) ([]byte, error) {
		sent += len(sub.Items)
		return echoSend(nil)(ctx, node, sub)
	}
	req := &service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x +* y", B: "x", Width: 8}}, // parse error
		{},                  // neither solve nor simplify
		solveItem("x", "x"), // fine
	}}
	resp := execute(t, ring, req, send, ExecuteOptions{})
	if resp.Items[0].Error == "" || resp.Items[1].Error == "" {
		t.Fatalf("malformed items not answered locally: %+v", resp.Items[:2])
	}
	if resp.Items[2].Solve == nil {
		t.Fatalf("valid item unanswered")
	}
	if sent != 1 {
		t.Fatalf("%d items forwarded, want 1 (malformed items must not reach nodes)", sent)
	}
}

func TestExecuteBatchShortResponseIsNodeFailure(t *testing.T) {
	// A node answering with the wrong item count is malformed; its
	// items must fail over rather than being mis-assembled.
	ring := testRing(t, "n1", "n2")
	bad := ""
	send := func(ctx context.Context, node string, sub *service.BatchRequest) ([]byte, error) {
		if bad == "" {
			bad = node // first node contacted answers short
		}
		if node == bad {
			return json.Marshal(&service.BatchResponse{})
		}
		return echoSend(nil)(ctx, node, sub)
	}
	req := &service.BatchRequest{Items: []service.BatchItem{solveItem("x|y", "y|x")}}
	resp := execute(t, ring, req, send, ExecuteOptions{})
	it := resp.Items[0]
	if it.Solve == nil || it.Solve.Status != smt.Equivalent.String() {
		t.Fatalf("item lost to a malformed node response: %+v", it)
	}
	if it.Node == bad {
		t.Fatalf("item attributed to the malformed node")
	}
}

func TestExecuteBatchUnspliceableReplyIsNodeFailure(t *testing.T) {
	// A reply the router cannot splice item by item is as bad as an
	// undecodable one: its items must fail over.
	for _, body := range []string{
		`not json`,
		`[]`,
		`{"items":[1]}`,
		`{"items":[{"solve":{}}]}`,
		`{"items":[{"index":0,"node":"n9","solve":{}}]}`,
		`{"items":[{"index": 0}]}`,
		`{"items":[{"index":0.5}]}`,
		`{"items":[{"index":0}],"groups":"1"}`,
		`{"items":[{"index":0}],"deduped":-1}`,
	} {
		ring := testRing(t, "n1", "n2")
		bad := ""
		send := func(ctx context.Context, node string, sub *service.BatchRequest) ([]byte, error) {
			if bad == "" {
				bad = node
			}
			if node == bad {
				return []byte(body), nil
			}
			return echoSend(nil)(ctx, node, sub)
		}
		req := &service.BatchRequest{Items: []service.BatchItem{solveItem("x|y", "y|x")}}
		it := execute(t, ring, req, send, ExecuteOptions{}).Items[0]
		if it.Solve == nil || it.Solve.Status != smt.Equivalent.String() || it.Node == bad {
			t.Errorf("reply %s: item not failed over: %+v", body, it)
		}
	}
}

func TestBatchReplySplicesNodeBytes(t *testing.T) {
	// Spliced members pass through untouched, a node stamp from an
	// inner router is replaced, and the result matches what
	// service.WriteJSON writes for the decoded response.
	ring := testRing(t, "n1")
	body := `{"items":[{"index":0,"error":"a<b & \u2028","node":"inner"},{"index":1,"solve":{"status":"equivalent","width":8,"conflicts":0,"propagations":0,"cached":false,"elapsed_ms":0.5}}],"groups":2,"deduped":0,"cache_hits":1,"elapsed_ms":3,"request_id":"r"}`
	send := func(ctx context.Context, node string, sub *service.BatchRequest) ([]byte, error) {
		return []byte(body), nil
	}
	req := &service.BatchRequest{Items: []service.BatchItem{solveItem("x", "y"), solveItem("x", "y")}}
	reply, _, _ := ExecuteBatch(context.Background(), ring, req, send, ExecuteOptions{})
	got := reply.AppendJSON(nil, 1.25, "id<1>")

	var resp service.BatchResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	for i := range resp.Items {
		resp.Items[i].Node = "n1"
	}
	resp.ElapsedMS, resp.RequestID = 1.25, "id<1>"
	rec := httptest.NewRecorder()
	service.WriteJSON(rec, http.StatusOK, resp)
	if want := rec.Body.String(); string(got) != want {
		t.Fatalf("spliced reply\n%s\nwant\n%s", got, want)
	}
}

// FuzzNodeReply: parsing any node reply never panics, and a reply the
// router accepts splices into a valid JSON response.
func FuzzNodeReply(f *testing.F) {
	for _, seed := range []string{
		`{"items":[{"index":0,"error":"x","node":"n"}],"groups":1,"deduped":0,"cache_hits":0,"elapsed_ms":1,"request_id":"r"}`,
		`{"items":[{"index":0,"solve":{"status":"equivalent","witness":{"x":1}}},{"index":1}],"groups":2}`,
		`{"items":null}`, `{"items":[{"index": 0}]}`, `[]`, `{}`, `{"items":[1,{"index":0}]}`, `{"items":[{"":0}]}`,
	} {
		f.Add([]byte(seed), 1)
	}
	f.Fuzz(func(t *testing.T, data []byte, want int) {
		if want < 0 || want > 1024 {
			return // sub-batches hold at least one and at most a batch's items
		}
		var nr nodeReply
		if !nr.parse(data, want) {
			return
		}
		reply := &BatchReply{items: make([]replyItem, want)}
		for i, m := range nr.items {
			reply.items[i] = replyItem{members: m, node: []byte(`"n"`)}
		}
		if out := reply.AppendJSON(nil, 0, ""); !json.Valid(out) {
			t.Fatalf("reply %q spliced into invalid JSON %q", data, out)
		}
	})
}

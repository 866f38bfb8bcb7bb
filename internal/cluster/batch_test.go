package cluster

import (
	"context"
	"fmt"
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
	return func(ctx context.Context, node string, req *service.BatchRequest) (*service.BatchResponse, error) {
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
		return resp, nil
	}
}

func TestExecuteBatchOrderAndSharding(t *testing.T) {
	ring := testRing(t, "n1", "n2", "n3")
	req := &service.BatchRequest{}
	for i := 0; i < 12; i++ {
		req.Items = append(req.Items, solveItem(fmt.Sprintf("x+%d", i), "x"))
	}
	resp, _ := ExecuteBatch(context.Background(), ring, req, echoSend(nil), ExecuteOptions{})
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
	resp, _ := ExecuteBatch(context.Background(), ring, req, echoSend(nil), ExecuteOptions{})
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
	send := func(ctx context.Context, node string, sub *service.BatchRequest) (*service.BatchResponse, error) {
		mu.Lock()
		sends[node] += len(sub.Items)
		mu.Unlock()
		if node == down {
			return nil, fmt.Errorf("connection refused")
		}
		return echoSend(nil)(ctx, node, sub)
	}
	var reports []string
	resp, _ := ExecuteBatch(context.Background(), ring, req, send, ExecuteOptions{
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
	send := func(ctx context.Context, node string, sub *service.BatchRequest) (*service.BatchResponse, error) {
		return nil, fmt.Errorf("refused")
	}
	resp, _ := ExecuteBatch(context.Background(), ring, req, send, ExecuteOptions{})
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
	resp, _ := ExecuteBatch(context.Background(), ring, req, echoSend(nil), ExecuteOptions{
		Allow: func(string) bool { return false },
	})
	if resp.Items[0].Solve == nil || resp.Items[0].Solve.Status != smt.Equivalent.String() {
		t.Fatalf("item refused although a node could answer: %+v", resp.Items[0])
	}
}

func TestExecuteBatchMalformedItemLocalError(t *testing.T) {
	ring := testRing(t, "n1")
	sent := 0
	send := func(ctx context.Context, node string, sub *service.BatchRequest) (*service.BatchResponse, error) {
		sent += len(sub.Items)
		return echoSend(nil)(ctx, node, sub)
	}
	req := &service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x +* y", B: "x", Width: 8}}, // parse error
		{},                  // neither solve nor simplify
		solveItem("x", "x"), // fine
	}}
	resp, _ := ExecuteBatch(context.Background(), ring, req, send, ExecuteOptions{})
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
	send := func(ctx context.Context, node string, sub *service.BatchRequest) (*service.BatchResponse, error) {
		if bad == "" {
			bad = node // first node contacted answers short
		}
		if node == bad {
			return &service.BatchResponse{}, nil
		}
		return echoSend(nil)(ctx, node, sub)
	}
	req := &service.BatchRequest{Items: []service.BatchItem{solveItem("x|y", "y|x")}}
	resp, _ := ExecuteBatch(context.Background(), ring, req, send, ExecuteOptions{})
	it := resp.Items[0]
	if it.Solve == nil || it.Solve.Status != smt.Equivalent.String() {
		t.Fatalf("item lost to a malformed node response: %+v", it)
	}
	if it.Node == bad {
		t.Fatalf("item attributed to the malformed node")
	}
}

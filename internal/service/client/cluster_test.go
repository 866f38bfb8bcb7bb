package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mbasolver/internal/cluster"
	"mbasolver/internal/leakcheck"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/service"
	"mbasolver/internal/smt"
)

// These tests drive a cluster the way a deployment does: a Client
// talks to an mbarouter (cluster.Router) that fronts scripted nodes.
// The router owns routing, failover and degradation; the client must
// see one server whose answers survive node failures.

// clusterNode is a scripted mbaserved stand-in that answers with its
// name as the Reason and can be toggled dead (503 on everything).
type clusterNode struct {
	name string
	dead atomic.Bool
	srv  *httptest.Server
}

func newClusterNode(t *testing.T, name string) *clusterNode {
	t.Helper()
	n := &clusterNode{name: name}
	mux := http.NewServeMux()
	answer := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc(service.PathBatch, func(w http.ResponseWriter, r *http.Request) {
		if n.dead.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		var req service.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := service.BatchResponse{}
		for i := range req.Items {
			resp.Items = append(resp.Items, service.BatchItemResult{
				Index: i,
				Solve: &service.SolveResponse{Status: smt.Equivalent.String(), Reason: name},
			})
		}
		answer(w, resp)
	})
	mux.HandleFunc(service.PathReady, func(w http.ResponseWriter, r *http.Request) {
		if n.dead.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		answer(w, service.HealthResponse{Status: "ok"})
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

// newClusterClient starts a router over nodes (probing every probe
// interval; negative disables probing) and returns a Client for it.
func newClusterClient(t *testing.T, probe time.Duration, nodes ...*clusterNode) *Client {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.srv.URL
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:         urls,
		ProbeInterval: probe,
		ProbeTimeout:  time.Second,
		Health:        portfolio.BreakerOptions{Threshold: 1, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return New(front.URL)
}

func TestClusterBatchDegradesWhenAllNodesDead(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2 := newClusterNode(t, "n1"), newClusterNode(t, "n2")
	cl := newClusterClient(t, -1, n1, n2)
	n1.dead.Store(true)
	n2.dead.Store(true)
	resp, err := cl.Batch(context.Background(), service.BatchRequest{
		Items: []service.BatchItem{
			{Solve: &service.SolveRequest{A: "x+y", B: "x|y", Width: 8}},
		},
	})
	if err != nil {
		t.Fatalf("cluster batch must degrade, not error: %v", err)
	}
	it := resp.Items[0]
	if it.Solve == nil || it.Solve.Status != smt.Unknown.String() || it.Solve.Reason != service.ReasonUnavailable {
		t.Fatalf("want reasoned Unknown, got %+v", it.Solve)
	}
}

func TestClusterBatchSplitsAndReassembles(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2, n3 := newClusterNode(t, "n1"), newClusterNode(t, "n2"), newClusterNode(t, "n3")
	cl := newClusterClient(t, -1, n1, n2, n3)
	req := service.BatchRequest{}
	for i := 0; i < 12; i++ {
		req.Items = append(req.Items, service.BatchItem{
			Solve: &service.SolveRequest{A: fmt.Sprintf("v+%d", i), B: "v", Width: 8},
		})
	}
	resp, err := cl.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != len(req.Items) {
		t.Fatalf("%d results for %d items", len(resp.Items), len(req.Items))
	}
	served := map[string]bool{}
	for i, it := range resp.Items {
		if it.Index != i || it.Solve == nil {
			t.Fatalf("item %d misassembled: %+v", i, it)
		}
		served[it.Solve.Reason] = true
	}
	if len(served) < 2 {
		t.Fatalf("batch not split across nodes: %v", served)
	}
}

func TestClusterReady(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	n1, n2 := newClusterNode(t, "n1"), newClusterNode(t, "n2")
	cl := newClusterClient(t, 10*time.Millisecond, n1, n2)
	ctx := context.Background()
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready with live nodes: %v", err)
	}

	// One dead node: once the prober has ejected it, the cluster is
	// still ready on the other.
	n1.dead.Store(true)
	time.Sleep(100 * time.Millisecond)
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("ready with one live node: %v", err)
	}

	// Zero live nodes: the cluster must leave rotation with a 503.
	n2.dead.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := cl.Ready(ctx)
		if se, ok := err.(*StatusError); ok && se.Code == http.StatusServiceUnavailable {
			return
		} else if err != nil {
			t.Fatalf("ready with zero live nodes: want a 503, got %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("ready with zero live nodes: still ready after 3s of probing")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

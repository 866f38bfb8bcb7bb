package chaos_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/cluster"
	"mbasolver/internal/fault"
	"mbasolver/internal/leakcheck"
	"mbasolver/internal/parser"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/smt"
)

// chaosNode is one restartable in-process mbaserved: a real
// service.Server behind a real TCP listener whose address survives
// kill/restart cycles, so the router's ring membership stays fixed
// while the process behind a slot comes and goes — the shape of a
// rolling restart or a crash-loop in production.
type chaosNode struct {
	addr string

	mu  sync.Mutex
	svc *service.Server
	srv *http.Server
}

func bootChaosNode(t *testing.T) *chaosNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &chaosNode{addr: ln.Addr().String()}
	n.serve(ln)
	return n
}

func (n *chaosNode) url() string { return "http://" + n.addr }

func (n *chaosNode) serve(ln net.Listener) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.svc = service.New(service.Config{Workers: 2})
	n.srv = &http.Server{Handler: n.svc.Handler()}
	srv := n.srv
	go func() { _ = srv.Serve(ln) }()
}

// kill shuts the node down completely: solver pool drained, listener
// closed, port released.
func (n *chaosNode) kill(t *testing.T) {
	t.Helper()
	n.mu.Lock()
	svc, srv := n.svc, n.srv
	n.svc, n.srv = nil, nil
	n.mu.Unlock()
	if svc == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("node %s pool shutdown: %v", n.addr, err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("node %s http shutdown: %v", n.addr, err)
	}
}

// restart boots a fresh service on the node's original address. The
// previous listener is fully closed by kill, but the kernel may take a
// moment to release the port, so binding retries briefly.
func (n *chaosNode) restart(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", n.addr)
		if err == nil {
			n.serve(ln)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", n.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterCorpusBatch builds one batch covering the whole known-answer
// corpus plus a duplicate of each equivalent pair (exercising dedup on
// every round). round salts nothing — identical batches are the point:
// later rounds should ride the shard caches.
func clusterCorpusBatch() service.BatchRequest {
	var req service.BatchRequest
	for _, p := range corpus {
		req.Items = append(req.Items, service.BatchItem{
			Solve: &service.SolveRequest{A: p.a, B: p.b, Width: width},
		})
	}
	for _, p := range corpus[:2] {
		req.Items = append(req.Items, service.BatchItem{
			Solve: &service.SolveRequest{A: p.a, B: p.b, Width: width},
		})
	}
	return req
}

// itemPair maps a batch item index back to its corpus entry.
func itemPair(i int) pair { return corpus[i%len(corpus)] }

// checkClusterItem asserts the wire-level degradation contract for one
// routed batch result: the true verdict, or an Unknown that carries a
// reason — never the opposite verdict, never a reasonless Unknown. A
// not-equivalent verdict's witness (when present) must really
// distinguish the pair.
func checkClusterItem(t *testing.T, p pair, it service.BatchItemResult) (definitive bool) {
	t.Helper()
	if it.Solve == nil {
		t.Fatalf("%s vs %s: missing solve result: %+v", p.a, p.b, it)
	}
	switch it.Solve.Status {
	case smt.Timeout.String():
		if it.Solve.Reason == "" {
			t.Errorf("%s vs %s: Unknown with no reason", p.a, p.b)
		}
		return false
	case p.want.String():
		if it.Solve.Witness != nil {
			ta := bv.FromExpr(parser.MustParse(p.a), width)
			tb := bv.FromExpr(parser.MustParse(p.b), width)
			if bv.Eval(ta, it.Solve.Witness) == bv.Eval(tb, it.Solve.Witness) {
				t.Fatalf("%s vs %s: witness %v does not distinguish", p.a, p.b, it.Solve.Witness)
			}
		}
		return true
	default:
		t.Fatalf("%s vs %s: WRONG verdict %q from node %q, want %v or unknown",
			p.a, p.b, it.Solve.Status, it.Node, p.want)
		return false
	}
}

// TestClusterChaos runs three real in-process nodes behind a real
// router, then turns everything hostile at once: solver faults fire
// probabilistically inside every node while one node is killed
// mid-traffic and later restarted cold. Concurrent clients hammer
// /v1/batch through the router the whole time. The contract under
// chaos is the same one the single-node stack promises, extended
// across the network: every answered item carries the true verdict or
// a reasoned Unknown — a dead node degrades its shard, it never
// corrupts it. After faults clear and the node returns, the router
// must readmit it and the full corpus must verify exactly; afterwards
// nothing may leak.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos is a long test")
	}
	t.Cleanup(leakcheck.Check(t))
	defer fault.Disable()

	nodes := []*chaosNode{bootChaosNode(t), bootChaosNode(t), bootChaosNode(t)}
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill(t)
		}
	})

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:         urls,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		Health:        portfolio.BreakerOptions{Threshold: 2, Cooldown: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	cl := client.New(front.URL, client.WithHTTPClient(&http.Client{Transport: tr}))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: faults inside every node, one node killed mid-stream.
	if err := fault.EnableSpec("sat.learn:p=0.3,seed=7;smt.context:p=0.2,seed=13"); err != nil {
		t.Fatal(err)
	}
	victim := nodes[1]

	const clients = 4
	const rounds = 3
	var wg sync.WaitGroup
	killOnce := sync.OnceFunc(func() { victim.kill(t) })
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if c == 0 && r == 1 {
					killOnce() // yank the node while batches are in flight
				}
				resp, err := cl.Batch(ctx, clusterCorpusBatch())
				if err != nil {
					// The router never fails a well-formed batch; any
					// transport error here is the test harness itself.
					t.Errorf("client %d round %d: %v", c, r, err)
					return
				}
				for i, it := range resp.Items {
					checkClusterItem(t, itemPair(i), it)
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: recovery. Faults clear, the victim restarts cold, and
	// the router must readmit it and serve the corpus exactly.
	fault.Disable()
	victim.restart(t)

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := cl.Batch(ctx, clusterCorpusBatch())
		if err != nil {
			t.Fatalf("recovery batch: %v", err)
		}
		allExact := true
		for i, it := range resp.Items {
			if !checkClusterItem(t, itemPair(i), it) {
				allExact = false
			}
		}
		if allExact {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corpus never fully recovered after faults cleared; last: %+v", resp.Items)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The restarted node must be back in rotation, not permanently
	// ejected: wait for the prober to readmit it.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if rt.Snapshot().Nodes[victim.url()] == "healthy" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted node stuck %q, want healthy; states %v",
				rt.Snapshot().Nodes[victim.url()], rt.Snapshot().Nodes)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Every shard must have done real work: the ring splits the corpus
	// across nodes, so at least two distinct nodes appear as servers.
	resp, err := cl.Batch(ctx, clusterCorpusBatch())
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[string]bool)
	for _, it := range resp.Items {
		served[it.Node] = true
	}
	if len(served) < 2 {
		t.Errorf("entire corpus served by %v — sharding collapsed", served)
	}
}

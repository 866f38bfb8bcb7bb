// Command mbarouter runs the stateless cluster router in front of a
// set of mbaserved nodes.
//
// Usage:
//
//	mbarouter -nodes http://h1:8391,http://h2:8391 [-addr 127.0.0.1:8390]
//	          [-probe-interval 500ms] [-probe-timeout 2s]
//	          [-eject-threshold 3] [-eject-cooldown 500ms] [-max-batch 1024]
//	mbarouter -selfcheck -target http://host:port
//
// The router owns no solver state — only the consistent-hash ring, the
// per-node health view and open connections — so any number of routers
// can front the same nodes without coordination. It shards requests by
// canonical expression digest (each digest has one stable owner node,
// keeping that node's verdict cache and incremental solver contexts
// hot for its shard), splits /v1/batch into per-node sub-batches,
// reassembles results in input order, fails single requests over along
// the ring on transport errors and gateway-class answers, and degrades
// items whose every replica is down to reasoned Unknown verdicts
// rather than failing requests.
//
// With -selfcheck -target it smokes a running router: readiness, a
// single solve, and a mixed batch with duplicate items (asserting
// input order and dedup server-side). scripts/ci.sh uses this in the
// cluster smoke stage.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mbasolver/internal/cluster"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/smt"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8390", "listen address (port 0 picks a free port)")
	nodes := flag.String("nodes", "", "comma-separated backend base URLs (required in server mode)")
	probeInterval := flag.Duration("probe-interval", 0, "active /readyz probe period (0 = 500ms, negative disables)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe timeout (0 = 2s)")
	ejectThreshold := flag.Int("eject-threshold", 0, "consecutive failures ejecting a node (0 = 3)")
	ejectCooldown := flag.Duration("eject-cooldown", 0, "initial ejection cooldown before a readmission probe (0 = 500ms)")
	maxBatch := flag.Int("max-batch", 0, "max items per routed batch (0 = 1024)")
	selfcheck := flag.Bool("selfcheck", false, "smoke a running router instead of serving")
	target := flag.String("target", "", "with -selfcheck: the router base URL to smoke")
	flag.Parse()

	if *selfcheck {
		if *target == "" {
			fmt.Fprintln(os.Stderr, "mbarouter: -selfcheck requires -target")
			os.Exit(2)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := smoke(ctx, *target); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("selfcheck ok")
		return
	}

	nodeList := splitNodes(*nodes)
	if len(nodeList) == 0 {
		fmt.Fprintln(os.Stderr, "mbarouter: -nodes is required (comma-separated base URLs)")
		os.Exit(2)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:         nodeList,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Health: portfolio.BreakerOptions{
			Threshold: *ejectThreshold,
			Cooldown:  *ejectCooldown,
		},
		MaxBatchItems: *maxBatch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbarouter:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbarouter:", err)
		os.Exit(1)
	}
	fmt.Printf("mbarouter: routing %d nodes on http://%s\n", len(nodeList), ln.Addr())

	httpSrv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	//lint:ignore goroutinelife Serve returns on Shutdown/listener close and errc is buffered, so the sender cannot linger
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mbarouter: %v, shutting down\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mbarouter:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mbarouter: http shutdown:", err)
		os.Exit(1)
	}
	rt.Close()
	fmt.Fprintln(os.Stderr, "mbarouter: drained, bye")
}

func splitNodes(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// smoke drives a running router end-to-end through the typed client:
// readiness, one routed solve, and a batch mixing solves, a duplicate
// pair and a simplify, asserting order, dedup and correct verdicts.
// The caller's context bounds the whole run, so an operator's Ctrl-C
// (or a test's cancel) stops it mid-flight.
func smoke(ctx context.Context, base string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))

	if err := cl.Ready(ctx); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}

	sol, err := cl.Solve(ctx, service.SolveRequest{A: "x^y", B: "(x|y)-(x&y)", Width: 8})
	if err != nil {
		return fmt.Errorf("routed solve: %w", err)
	}
	if sol.Status != smt.Equivalent.String() {
		return fmt.Errorf("routed solve: status %s, want equivalent", sol.Status)
	}

	batch := service.BatchRequest{Items: []service.BatchItem{
		{Solve: &service.SolveRequest{A: "x+y", B: "(x|y)+(x&y)", Width: 8}},
		{Solve: &service.SolveRequest{A: "x", B: "x+1", Width: 8}},
		{Solve: &service.SolveRequest{A: "x+y", B: "(x|y)+(x&y)", Width: 8}}, // dup of item 0
		{Simplify: &service.SimplifyRequest{Expr: "(x&~y)+y", Width: 8}},
	}}
	resp, err := cl.Batch(ctx, batch)
	if err != nil {
		return fmt.Errorf("routed batch: %w", err)
	}
	if len(resp.Items) != len(batch.Items) {
		return fmt.Errorf("routed batch: %d results for %d items", len(resp.Items), len(batch.Items))
	}
	for i, it := range resp.Items {
		if it.Index != i {
			return fmt.Errorf("routed batch: item %d has index %d", i, it.Index)
		}
	}
	if s := resp.Items[0].Solve; s == nil || s.Status != smt.Equivalent.String() {
		return fmt.Errorf("routed batch: item 0 = %+v, want equivalent", resp.Items[0].Solve)
	}
	if s := resp.Items[1].Solve; s == nil || s.Status != smt.NotEquivalent.String() {
		return fmt.Errorf("routed batch: item 1 = %+v, want not-equivalent", resp.Items[1].Solve)
	}
	if s := resp.Items[2].Solve; s == nil || s.Status != smt.Equivalent.String() {
		return fmt.Errorf("routed batch: item 2 = %+v, want equivalent", resp.Items[2].Solve)
	}
	if resp.Items[3].Simplify == nil || resp.Items[3].Error != "" {
		return fmt.Errorf("routed batch: simplify item failed: %+v", resp.Items[3])
	}
	if resp.Deduped < 1 {
		return fmt.Errorf("routed batch: deduped = %d, want >= 1 (duplicate pair shares one solve)", resp.Deduped)
	}
	if resp.RequestID == "" {
		return fmt.Errorf("routed batch: missing request ID")
	}
	return nil
}

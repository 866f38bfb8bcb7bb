package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mbasolver/internal/leakcheck"
	"mbasolver/internal/service"
)

// goldenFile holds the router golden corpus: every response body the
// corpus below produces, with elapsed_ms values and loopback ports
// masked. The router must reproduce it byte for byte.
const goldenFile = "testdata/router_golden.txt"

// hostMap is a transport that sends requests for stable host names
// (node-a, node-b, inner) to the loopback listener behind each, so the
// ring, which hashes node URLs, shards identically on every run. A
// host whose listener is gone answers with a dial error.
type hostMap struct {
	mu    sync.Mutex
	hosts map[string]string // stable host -> listener host:port
	tr    *http.Transport
}

func (m *hostMap) RoundTrip(r *http.Request) (*http.Response, error) {
	m.mu.Lock()
	addr, ok := m.hosts[r.URL.Host]
	m.mu.Unlock()
	if !ok {
		return nil, errors.New("unknown host " + r.URL.Host)
	}
	r = r.Clone(r.Context())
	r.URL.Host = addr
	return m.tr.RoundTrip(r)
}

func (m *hostMap) CloseIdleConnections() { m.tr.CloseIdleConnections() }

// goldenCase is one request of the corpus.
type goldenCase struct {
	name string
	path string // service.PathBatch or a single-request path
	body any    // encoded as the request body; a string is sent verbatim
	// outer sends the request through the router whose only node is
	// the first router, so every item's node is stamped twice.
	outer bool
	// before runs ahead of the request (stopping a node mid-corpus).
	before func()
}

// TestRouterGoldenCorpus drives two real service nodes behind a router,
// and that router behind a second router, through solve, simplify and
// classify batches with in-batch duplicates, malformed items the router
// answers itself, single requests, and a node stopped mid-corpus for
// failover and then unavailable degradation. Every response body must
// match the recorded corpus byte for byte. When the golden file is
// missing the test records it and fails, so a fresh recording is
// always reviewed before it is committed.
func TestRouterGoldenCorpus(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	hm := &hostMap{hosts: map[string]string{}, tr: &http.Transport{}}
	t.Cleanup(hm.tr.CloseIdleConnections)
	start := func(host string, h http.Handler) *httptest.Server {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		hm.mu.Lock()
		hm.hosts[host] = strings.TrimPrefix(srv.URL, "http://")
		hm.mu.Unlock()
		return srv
	}
	nodes := map[string]*httptest.Server{}
	for _, host := range []string{"node-a", "node-b"} {
		svc := service.New(service.Config{Workers: 2, DisableIncremental: true})
		nodes[host] = start(host, svc.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := svc.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
	}
	newRouter := func(nodes ...string) *Router {
		rt, err := NewRouter(RouterConfig{Nodes: nodes, ProbeInterval: -1, Transport: hm})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	inner := newRouter("http://node-a", "http://node-b")
	start("inner", inner.Handler())
	outer := newRouter("http://inner")

	var got bytes.Buffer
	for i, c := range goldenCorpus(nodes, hm.tr) {
		if c.before != nil {
			c.before()
		}
		body, ok := c.body.(string)
		if !ok {
			data, err := json.Marshal(c.body)
			if err != nil {
				t.Fatal(err)
			}
			body = string(data)
		}
		h := inner.Handler()
		if c.outer {
			h = outer.Handler()
		}
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(body))
		req.Header.Set(service.HeaderRequestID, fmt.Sprintf("golden-%02d", i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&got, "== %s %s %d\n%s", c.name, c.path, rec.Code, maskGolden(rec.Body.String()))
	}

	want, err := os.ReadFile(goldenFile)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(goldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; review it and rerun", goldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d differs:\ngot  %s\nwant %s", goldenFile, i+1, g, w)
			}
		}
	}
}

var (
	elapsedRE  = regexp.MustCompile(`"elapsed_ms":[-+.0-9eE]+`)
	loopbackRE = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)
)

// maskGolden blanks the values that differ between runs: wall-clock
// durations and the loopback ports in dial errors.
func maskGolden(body string) string {
	body = elapsedRE.ReplaceAllString(body, `"elapsed_ms":0`)
	return loopbackRE.ReplaceAllString(body, "127.0.0.1:PORT")
}

func solveGolden(a, b string, width uint) service.BatchItem {
	return service.BatchItem{Solve: &service.SolveRequest{A: a, B: b, Width: width}}
}

func simplifyGolden(e string, verify bool) service.BatchItem {
	return service.BatchItem{Simplify: &service.SimplifyRequest{Expr: e, Width: 8, Verify: verify}}
}

func classifyGolden(e string) service.BatchItem {
	return service.BatchItem{Classify: &service.ClassifyRequest{Expr: e, Width: 8, Samples: 3, Seed: 5}}
}

func batchGolden(items ...service.BatchItem) service.BatchRequest {
	return service.BatchRequest{Items: items}
}

// goldenCorpus is the request sequence. Order matters: later cases see
// the caches and health state the earlier ones left behind. Stopping a
// node also drops tr's idle connections, so the next forward dials the
// closed listener and is refused rather than racing a half-closed
// keep-alive connection.
func goldenCorpus(nodes map[string]*httptest.Server, tr *http.Transport) []goldenCase {
	mixed := batchGolden(
		solveGolden("x+y", "(x|y)+(x&y)", 8),
		solveGolden("x-y", "(x^y)-2*(~x&y)", 8),
		solveGolden("x*y", "(x&y)*(x|y)+(x&~y)*(~x&y)", 4),
		solveGolden("x+1", "x", 8),
		solveGolden("x^y", "x|y", 8),
		solveGolden("x+y", "(x|y)+(x&y)", 8), // duplicate
		solveGolden("(x|y)+(x&y)", "y+x", 8), // order- and spelling-normalized duplicate
		simplifyGolden("(x&~y)*(~x&y) + (x&y)*(x|y)", false),
		simplifyGolden("2*(x|y) - (~x&y) - (x&~y)", true),
		simplifyGolden("(y|x)*2 - (~x&y) - (x&~y)", true), // canonical duplicate
		service.BatchItem{Simplify: &service.SimplifyRequest{Expr: "x^y", Width: 8, Basis: "disj"}},
		classifyGolden("x^y"),
		classifyGolden("(x&y)*(x|y)"),
		classifyGolden("y^x"),
		service.BatchItem{Solve: &service.SolveRequest{A: "x*x*y", B: "y*x*x", Width: 16, Solver: "stpsim"}},
		service.BatchItem{Solve: &service.SolveRequest{A: "x", B: "x", Width: 8, Solver: "nosuch"}}, // refused by the router with the node's error
		service.BatchItem{Solve: &service.SolveRequest{A: "x*y*z", B: "z*(y*x)+0", Width: 12, Conflicts: 1}},
	)
	malformed := batchGolden(
		solveGolden("x +* y", "x", 8),
		solveGolden("x<y", "x", 8),
		solveGolden("x", "(y", 8),
		service.BatchItem{},
		service.BatchItem{Solve: &service.SolveRequest{A: "x", B: "x"}, Simplify: &service.SimplifyRequest{Expr: "x"}},
		service.BatchItem{Simplify: &service.SimplifyRequest{Expr: "x&y", Basis: "both"}},
		service.BatchItem{Solve: &service.SolveRequest{A: "x", B: "x", Conflicts: -1}},
		service.BatchItem{Solve: &service.SolveRequest{A: "x", B: "x", TimeoutMS: 5}},
		service.BatchItem{Classify: &service.ClassifyRequest{Expr: "x", Samples: -1}},
		solveGolden("x&y", "y&x", 8),
		simplifyGolden("x|x&y", false),
	)
	stop := func(host string) func() { return func() { nodes[host].Close(); tr.CloseIdleConnections() } }
	return []goldenCase{
		{name: "mixed", path: service.PathBatch, body: mixed},
		{name: "malformed", path: service.PathBatch, body: malformed},
		{name: "mixed-cached", path: service.PathBatch, body: mixed},
		{name: "nested", path: service.PathBatch, body: mixed, outer: true},
		{name: "nested-malformed", path: service.PathBatch, body: malformed, outer: true},
		{name: "single-solve", path: service.PathSolve, body: service.SolveRequest{A: "x+y", B: "(x^y)+2*(x&y)", Width: 8}},
		{name: "single-simplify", path: service.PathSimplify, body: service.SimplifyRequest{Expr: "(x|y)-(x&y)", Width: 8}},
		{name: "single-classify", path: service.PathClassify, body: service.ClassifyRequest{Expr: "x*y", Width: 8, Samples: 2, Seed: 1}},
		{name: "single-malformed", path: service.PathSolve, body: `{"a":"x+","b":"x"}`},
		{name: "single-nested", path: service.PathSolve, body: service.SolveRequest{A: "x|y", B: "(x^y)+(x&y)", Width: 8}, outer: true},
		{name: "batch-bad-json", path: service.PathBatch, body: `{"items":[{"solve":`},
		{name: "node-b-stopped", path: service.PathBatch, body: mixed, before: stop("node-b")},
		{name: "node-b-stopped-again", path: service.PathBatch, body: mixed},
		{name: "node-b-stopped-nested", path: service.PathBatch, body: malformed, outer: true},
		{name: "single-after-b", path: service.PathSolve, body: service.SolveRequest{A: "x-y", B: "x+~y+1", Width: 8}},
		{name: "all-stopped", path: service.PathBatch, body: mixed, before: stop("node-a")},
		{name: "all-stopped-nested", path: service.PathBatch, body: malformed, outer: true},
		{name: "single-all-stopped", path: service.PathSimplify, body: service.SimplifyRequest{Expr: "x+y", Width: 8}},
	}
}

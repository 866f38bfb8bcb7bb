package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mbasolver/internal/portfolio"
	"mbasolver/internal/service"
)

// RouterConfig sizes the router. Nodes is required; everything else
// has defaults.
type RouterConfig struct {
	// Nodes are the backend base URLs, e.g. "http://10.0.0.7:8391".
	Nodes []string
	// ProbeInterval is the active /readyz polling period (default
	// 500ms; negative disables active probing, leaving only passive
	// failure marking).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 2s).
	ProbeTimeout time.Duration
	// Health tunes each node's circuit breaker: Threshold consecutive
	// failed forwards or probes eject a node, and after Cooldown
	// (default 500ms here, doubling per failed readmission probe up to
	// MaxCooldown) one probe may readmit it.
	Health portfolio.BreakerOptions
	// MaxBatchItems caps routed batches (default 1024 — the router cap
	// is looser than the node cap because the router splits before
	// forwarding).
	MaxBatchItems int
	// Transport overrides the forwarding round-tripper (tests).
	Transport http.RoundTripper
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 1024
	}
	if c.Health.Cooldown <= 0 {
		c.Health.Cooldown = 500 * time.Millisecond
	}
	return c
}

// Router is the stateless scale-out tier: it owns no solver state,
// only the ring, the node breakers and open connections, so N routers
// can run behind a TCP balancer without coordination. Create with
// NewRouter, mount via Handler, stop with Close (stops the prober and
// releases idle connections; in-flight requests finish).
//
// Node health runs on portfolio.Breaker, the engines' circuit breaker,
// one per node and named by its URL: closed, open and half-open read
// healthy, ejected and probing. Evidence arrives on two paths.
// Passively, every forward reports its outcome (a transport error or
// 5xx is a failure; a spliceable reply is a success). Actively, the
// prober polls each node's /readyz, which also covers nodes receiving
// no traffic and is the single probe that readmits an ejected node.
type Router struct {
	cfg      RouterConfig
	ring     *Ring
	breakers map[string]*portfolio.Breaker // by node URL; fixed after NewRouter
	hc       *http.Client
	mux      *http.ServeMux
	met      routerMetrics

	done    chan struct{}
	wg      sync.WaitGroup
	closing atomic.Bool
}

// routerMetrics are the router's own counters (the nodes keep their
// own /debug/metrics; the router exposes the cluster view).
type routerMetrics struct {
	start     time.Time
	forwarded atomic.Int64 // sub-requests sent to nodes
	failovers atomic.Int64 // sub-requests retried on another replica
	degraded  atomic.Int64 // items degraded to reasoned Unknown
	batches   atomic.Int64
	singles   atomic.Int64
	probes    atomic.Int64
}

// RouterSnapshot is the router's /debug/metrics body.
type RouterSnapshot struct {
	UptimeMS   float64           `json:"uptime_ms"`
	Goroutines int               `json:"goroutines"`
	Nodes      map[string]string `json:"nodes"` // health state per node
	Batches    int64             `json:"batches"`
	Singles    int64             `json:"singles"`
	Forwarded  int64             `json:"forwarded"`
	Failovers  int64             `json:"failovers"`
	Degraded   int64             `json:"degraded"`
	Probes     int64             `json:"probes"`
	Ejects     int64             `json:"ejects"`
}

// NewRouter builds a router over the given backends and starts its
// prober loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("router ring: %w", err)
	}
	rt := &Router{
		cfg:      cfg,
		ring:     ring,
		breakers: make(map[string]*portfolio.Breaker, len(cfg.Nodes)),
		hc:       &http.Client{Transport: cfg.Transport},
		mux:      http.NewServeMux(),
		met:      routerMetrics{start: time.Now()},
		done:     make(chan struct{}),
	}
	for _, node := range cfg.Nodes {
		rt.breakers[node] = portfolio.NewBreaker(node, cfg.Health)
	}
	rt.mux.HandleFunc(service.PathBatch, rt.handleBatch)
	rt.mux.HandleFunc(service.PathSolve, rt.handleSingle)
	rt.mux.HandleFunc(service.PathSimplify, rt.handleSingle)
	rt.mux.HandleFunc(service.PathClassify, rt.handleSingle)
	rt.mux.HandleFunc(service.PathHealth, rt.handleHealth)
	rt.mux.HandleFunc(service.PathReady, rt.handleReady)
	rt.mux.HandleFunc(service.PathMetrics, rt.handleMetrics)
	if cfg.ProbeInterval > 0 {
		rt.wg.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt }

// ServeHTTP implements http.Handler, applying the same request-ID
// middleware as the nodes so the ID exists before it is forwarded.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(service.HeaderRequestID)
	if id == "" {
		id = service.NewRequestID()
		r.Header.Set(service.HeaderRequestID, id)
	}
	w.Header().Set(service.HeaderRequestID, id)
	rt.mux.ServeHTTP(w, r)
}

// Ring exposes the router's ring (the bench harness inspects shard
// assignment).
func (rt *Router) Ring() *Ring { return rt.ring }

// nodeStates maps breaker states to the node words /debug/metrics
// shows.
var nodeStates = map[string]string{"closed": "healthy", "open": "ejected", "half-open": "probing"}

// Snapshot returns the router metrics (the /debug/metrics body).
func (rt *Router) Snapshot() RouterSnapshot {
	snap := RouterSnapshot{
		UptimeMS:   float64(time.Since(rt.met.start)) / float64(time.Millisecond),
		Goroutines: runtime.NumGoroutine(),
		Nodes:      make(map[string]string, len(rt.breakers)),
		Batches:    rt.met.batches.Load(),
		Singles:    rt.met.singles.Load(),
		Forwarded:  rt.met.forwarded.Load(),
		Failovers:  rt.met.failovers.Load(),
		Degraded:   rt.met.degraded.Load(),
		Probes:     rt.met.probes.Load(),
	}
	for node, b := range rt.breakers {
		snap.Nodes[node] = nodeStates[b.State()]
		snap.Ejects += b.Trips()
	}
	return snap
}

// Close stops the prober loop and closes idle backend connections. It
// is idempotent.
func (rt *Router) Close() {
	if rt.closing.Swap(true) {
		return
	}
	close(rt.done)
	rt.wg.Wait()
	rt.hc.CloseIdleConnections()
}

// probeLoop actively polls every node's /readyz. The node's breaker's
// Allow gates which nodes get a probe each tick: healthy nodes always
// (that is how silent death is noticed on an idle shard), ejected
// nodes only after their cooldown, as the single readmission probe.
// Probes run concurrently so one hung node cannot stall the loop past
// its own timeout.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for node, b := range rt.breakers {
			if !b.Allow() {
				continue
			}
			node, b := node, b
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt.met.probes.Add(1)
				if rt.probe(node) {
					b.ReportSuccess()
				} else {
					b.ReportFailure()
				}
			}()
		}
		wg.Wait()
	}
}

// probe checks one node's readiness. Any answer other than a 200 from
// /readyz — including a 503 from a draining node — is a failure: a
// draining node is alive but must leave the rotation before its
// connections die.
//
//lint:daemon the readiness prober owns its lifecycle: each probe roots a context bounded by ProbeTimeout and probeLoop stops with the router
func (rt *Router) probe(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+service.PathReady, nil)
	if err != nil {
		return false
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ---- batch routing --------------------------------------------------

const maxBodyBytes = 8 << 20

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.met.batches.Add(1)
	var req service.BatchRequest
	if err := service.DecodeJSON(w, r, &req, maxBodyBytes); err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: err.Error()})
		return
	}
	if len(req.Items) == 0 {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: "batch has no items"})
		return
	}
	if len(req.Items) > rt.cfg.MaxBatchItems {
		msg := fmt.Sprintf("batch has %d items, router cap is %d", len(req.Items), rt.cfg.MaxBatchItems)
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: msg})
		return
	}

	id := r.Header.Get(service.HeaderRequestID)
	reply, degraded, failovers := ExecuteBatch(r.Context(), rt.ring, &req, rt.sendSubBatch(id), rt.breakers)
	rt.met.degraded.Add(int64(degraded))
	rt.met.failovers.Add(int64(failovers))
	body := reply.AppendJSON(nil, float64(time.Since(start))/float64(time.Millisecond), id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// sendSubBatch returns the SendFunc forwarding one sub-batch to one
// node with the batch's correlation ID attached.
func (rt *Router) sendSubBatch(id string) SendFunc {
	return func(ctx context.Context, node string, req *service.BatchRequest) ([]byte, error) {
		rt.met.forwarded.Add(1)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encoding sub-batch: %w", err)
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, node+service.PathBatch, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set(service.HeaderRequestID, id)
		res, err := rt.hc.Do(hr)
		if err != nil {
			return nil, err
		}
		defer res.Body.Close()
		data, err := io.ReadAll(io.LimitReader(res.Body, maxBodyBytes))
		if err != nil {
			return nil, fmt.Errorf("reading sub-batch response: %w", err)
		}
		if res.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("node %s answered %d to sub-batch", node, res.StatusCode)
		}
		return data, nil
	}
}

// ---- single-item routing --------------------------------------------

// handleSingle forwards one solve/simplify/classify request to its
// digest's owner node, failing over along the key's replica walk (the
// one batch items take) on transport errors and 502/503/504 — the
// "node is gone or leaving" answers. Anything else (including a node's
// 400/429) is the backend's real answer and is relayed verbatim.
func (rt *Router) handleSingle(w http.ResponseWriter, r *http.Request) {
	rt.met.singles.Add(1)
	if r.Method != http.MethodPost {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: fmt.Sprintf("method %s not allowed (use POST)", r.Method)})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: fmt.Sprintf("reading request: %v", err)})
		return
	}
	key, err := routeKeyFor(r.URL.Path, body)
	if err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: err.Error()})
		return
	}

	walk := newReplicaWalk(rt.ring, key)
	var lastErr error
	for node := walk.next(rt.breakers); node != ""; node = walk.next(rt.breakers) {
		if lastErr != nil {
			rt.met.failovers.Add(1) // the previous replica failed
		}
		done, err := rt.forwardSingle(w, r, node, body)
		if done {
			return
		}
		lastErr = err
	}
	rt.met.degraded.Add(1)
	service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorResponse{
		Error: fmt.Sprintf("%s: no cluster node could answer (%v)", service.ReasonUnavailable, lastErr),
	})
}

// forwardSingle relays one request to one node. done=true means a
// response was written (success or a verbatim backend answer);
// done=false means the node is unreachable/leaving and the caller
// should fail over.
func (rt *Router) forwardSingle(w http.ResponseWriter, r *http.Request, node string, body []byte) (bool, error) {
	rt.met.forwarded.Add(1)
	b := rt.breakers[node]
	hr, err := http.NewRequestWithContext(r.Context(), http.MethodPost, node+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(service.HeaderRequestID, r.Header.Get(service.HeaderRequestID))
	res, err := rt.hc.Do(hr)
	if err != nil {
		b.ReportFailure()
		return false, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, maxBodyBytes))
	if err != nil {
		b.ReportFailure()
		return false, fmt.Errorf("reading node response: %w", err)
	}
	switch res.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		b.ReportFailure()
		return false, fmt.Errorf("node %s answered %d", node, res.StatusCode)
	}
	b.ReportSuccess()
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.StatusCode)
	_, _ = w.Write(data)
	return true, nil
}

// routeKeyFor computes the canonical route key for a single-item
// request body as the key of the one-item batch the node will run it
// as, so routing and caching agree on what "the same query" means.
func routeKeyFor(path string, body []byte) (string, error) {
	var it service.BatchItem
	var req any
	switch path {
	case service.PathSolve:
		it.Solve = new(service.SolveRequest)
		req = it.Solve
	case service.PathSimplify:
		it.Simplify = new(service.SimplifyRequest)
		req = it.Simplify
	default:
		it.Classify = new(service.ClassifyRequest)
		req = it.Classify
	}
	if err := json.Unmarshal(body, req); err != nil {
		return "", fmt.Errorf("invalid request body: %w", err)
	}
	if it.Solve != nil {
		// A single solve's own budget is the node's to check; the
		// batch item it runs as carries none.
		it.Solve.TimeoutMS = 0
	}
	return it.RouteKey()
}

// ---- router health & metrics ----------------------------------------

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, service.HealthResponse{Status: "ok"})
}

// handleReady reports 200 while at least one backend is routable: a
// router with zero live nodes cannot serve and should leave rotation.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, b := range rt.breakers {
		if !b.Open() {
			service.WriteJSON(w, http.StatusOK, service.HealthResponse{Status: "ok"})
			return
		}
	}
	service.WriteJSON(w, http.StatusServiceUnavailable, service.HealthResponse{Status: "no-nodes"})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, rt.Snapshot())
}

package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mbasolver/internal/core"
	"mbasolver/internal/eval/bitslice"
	"mbasolver/internal/expr"
	"mbasolver/internal/fault"
	"mbasolver/internal/metrics"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/smt"
	"mbasolver/internal/store"
)

// Fault-injection sites (no-ops unless a chaos plan arms them):
// service.admit simulates allocation failure at queue admission (the
// request sheds with 429 exactly like a full queue); service.worker
// panics inside the worker body, exercising the per-task containment
// that keeps the worker alive; service.stop raises the task's stop
// flag at dispatch, simulating a client that disconnected while the
// task sat in the queue — the deterministic way to produce truncated
// classify sample blocks and budget-exhausted solves in tests.
var (
	siteAdmit  = fault.NewSite("service.admit")
	siteWorker = fault.NewSite("service.worker")
	siteStop   = fault.NewSite("service.stop")
)

// MaxBatchItems caps the item count of one /v1/batch request, on a node
// and on the cluster router alike. Larger batches are rejected with 400
// so a single call cannot pin the pool for minutes past every deadline;
// since the router checks the same cap, no sub-batch it forwards can
// exceed a node's.
const MaxBatchItems = 256

const (
	// defaultConflicts is the CDCL conflict budget applied when a solve
	// request does not set one, matching the public API's
	// CheckEquivalence budget.
	defaultConflicts = 2_000_000
	// retryAfter is the backoff hint attached to 429/503 answers.
	retryAfter = time.Second
)

// Config sizes the service. The zero value yields sensible defaults.
type Config struct {
	// Workers is the solver pool size (default NumCPU). It bounds the
	// number of concurrently executing queries.
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers). A full
	// queue sheds load with 429 instead of queueing without bound.
	QueueDepth int
	// CacheSize is the verdict/simplification LRU capacity in entries
	// (default 4096; negative disables caching).
	CacheSize int
	// DefaultTimeout bounds a query when the request does not pick one
	// (default 5s); MaxTimeout clamps requested budgets (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultWidth is the ring width used when requests omit one
	// (default 64).
	DefaultWidth uint
	// BreakerThreshold is the consecutive structural-failure count
	// (contained panics, blown memory caps — not ordinary timeouts)
	// that opens a personality's circuit breaker. Default 3; negative
	// disables the breakers. Every solve is guarded, warm or not: a
	// portfolio solve skips an engine whose breaker is open, and a solo
	// solve (a one-engine portfolio) runs its engine anyway, because
	// answering degraded beats refusing; a poisoned warm context resets
	// itself before it answers again.
	BreakerThreshold int
	// BreakerCooldown is the open interval before a breaker admits a
	// probe query (default 250ms; backs off exponentially on repeated
	// failures).
	BreakerCooldown time.Duration
	// DisableIncremental makes every solve build a fresh solver instead
	// of using the per-worker incremental smt.Contexts. Incremental
	// solving keeps interned terms, encoded circuits and learned clauses
	// warm across the queries a worker serves (bounded by the contexts'
	// internal watermarks, which recycle oversized state automatically);
	// verdicts are identical either way, so this switch exists for
	// memory-constrained deployments and A/B measurement, not
	// correctness. The portfolio's breakers apply either way.
	DisableIncremental bool
	// Store is the optional persistent verdict store consulted behind
	// the LRU and written through on definitive answers (nil =
	// memory-only). The server shares it read/write with its workers but
	// does not own its lifecycle: the caller Opens it before New and
	// Closes it after Shutdown.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.DefaultWidth == 0 || c.DefaultWidth > 64 {
		c.DefaultWidth = 64
	}
	return c
}

// portfolioOptions maps the config onto each worker's portfolio set;
// the one-engine solo sets take its Incremental and Breakers.
func (c Config) portfolioOptions() portfolio.Options {
	o := portfolio.Options{Incremental: !c.DisableIncremental}
	if c.BreakerThreshold >= 0 {
		o.Breakers = &portfolio.BreakerOptions{Threshold: c.BreakerThreshold, Cooldown: c.BreakerCooldown}
	}
	return o
}

// Endpoint paths, shared with the client package, the cluster router
// and the CLIs.
const (
	PathSimplify = "/v1/simplify"
	PathSolve    = "/v1/solve"
	PathClassify = "/v1/classify"
	PathBatch    = "/v1/batch"
	PathHealth   = "/healthz"
	PathReady    = "/readyz"
	PathMetrics  = "/debug/metrics"
)

var (
	errOverloaded   = errors.New("admission queue full")
	errShuttingDown = errors.New("server is shutting down")
	errWorkerPanic  = errors.New("internal solver error")
)

// task is one admitted unit of work. The worker runs it under a
// per-task stop flag wired to both the request context and server
// shutdown, and always closes done.
type task struct {
	ctx      context.Context
	deadline time.Time // absolute request deadline, set at admission
	run      func(w *workerCtx)
	// panicked reports that the task died to a contained panic; written
	// by the worker before done is closed (the close is the
	// happens-before edge submit reads it across).
	panicked bool
	done     chan struct{}
}

// simpKey identifies one simplifier configuration; each worker keeps a
// private simplifier per configuration because core.Simplifier is not
// goroutine-safe but amortizes its signature table across calls.
type simpKey struct {
	width uint
	disj  bool
}

// workerCtx is the per-worker state handed to task closures. Each
// worker runs tasks strictly sequentially, so the incremental contexts
// (single-goroutine by contract) are safe here and accumulate warm
// state across every query the worker serves.
type workerCtx struct {
	stop  *atomic.Bool
	simps map[simpKey]*core.Simplifier
	solo  map[string]*portfolio.Set // one-engine set per personality
	set   *portfolio.Set            // portfolio line-up
}

// resetSolvers rebuilds the worker's accumulated solver state after a
// contained panic: the unwind may have interrupted any of the warm
// structures mid-update, and a rebuilt cache is strictly cheaper than
// a wrong verdict from a half-updated one.
func (w *workerCtx) resetSolvers() {
	w.simps = map[simpKey]*core.Simplifier{}
	for _, set := range w.solo {
		set.Reset()
	}
	w.set.Reset()
}

func (w *workerCtx) simplifier(width uint, disj bool) *core.Simplifier {
	k := simpKey{width, disj}
	s := w.simps[k]
	if s == nil {
		basis := core.BasisConjunction
		if disj {
			basis = core.BasisDisjunction
		}
		s = core.New(core.Options{Width: width, Basis: basis})
		w.simps[k] = s
	}
	return s
}

// Server is the simplify-and-solve service. Create with New, mount via
// Handler (or ServeHTTP), stop with Shutdown.
type Server struct {
	cfg     Config
	met     *serverMetrics
	cache   *Cache
	store   *store.Store // second-level persistent lookup; nil = memory-only
	queue   chan *task
	down    chan struct{} // closed on shutdown; cancels in-flight budgets
	closing atomic.Bool
	admitMu sync.RWMutex // write-held once by Shutdown to fence admissions
	wg      sync.WaitGroup
	all     []*smt.Solver // portfolio line-up, paper column order
	mux     *http.ServeMux
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		met:   newServerMetrics(PathSimplify, PathSolve, PathClassify, PathBatch, PathHealth, PathReady, PathMetrics),
		cache: NewCache(cfg.CacheSize),
		store: cfg.Store,
		queue: make(chan *task, cfg.QueueDepth),
		down:  make(chan struct{}),
		mux:   http.NewServeMux(),
	}
	s.all = smt.All()
	s.mux.HandleFunc(PathSimplify, s.handleSimplify)
	s.mux.HandleFunc(PathSolve, s.handleSolve)
	s.mux.HandleFunc(PathClassify, s.handleClassify)
	s.mux.HandleFunc(PathBatch, s.handleBatch)
	s.mux.HandleFunc(PathHealth, s.handleHealth)
	s.mux.HandleFunc(PathReady, s.handleReady)
	s.mux.HandleFunc(PathMetrics, s.handleMetrics)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler for mounting under an http.Server.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler. Every request passes the
// request-ID middleware: an incoming X-Request-ID is adopted and
// echoed, a missing one is generated, so any answer — including 429
// and 503 rejections — can be correlated across a multi-node cluster.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := requestIDOf(r)
	if id == "" {
		id = NewRequestID()
		r.Header.Set(HeaderRequestID, id)
	}
	w.Header().Set(HeaderRequestID, id)
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the current metrics snapshot (the /debug/metrics
// body), for in-process consumers like tests and the selfcheck.
func (s *Server) Metrics() MetricsSnapshot {
	pool := PoolSnapshot{
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
	}
	snap := s.met.snapshot(s.cache.Snapshot(), pool)
	if s.store != nil {
		st := s.store.Snapshot()
		snap.Store = &st
	}
	return snap
}

// Shutdown stops admitting work, cancels in-flight solves via their
// budget stop flags, drains the queue (pre-admitted tasks finish
// immediately under a raised stop flag) and waits for the workers, or
// for ctx. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	// The write lock fences the admission fast path: after it is
	// released every submit either saw closing=true or already has its
	// task in the queue, where the drain loop will find it.
	s.admitMu.Lock()
	already := s.closing.Swap(true)
	s.admitMu.Unlock()
	if !already {
		close(s.down)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	opts := s.cfg.portfolioOptions()
	w := &workerCtx{
		simps: map[simpKey]*core.Simplifier{},
		solo:  make(map[string]*portfolio.Set, len(s.all)),
		set:   portfolio.New(s.all, opts),
	}
	for _, sv := range s.all {
		w.solo[sv.Name()] = portfolio.New([]*smt.Solver{sv}, portfolio.Options{Incremental: opts.Incremental, Breakers: opts.Breakers})
	}
	for {
		select {
		case t := <-s.queue:
			s.runTask(w, t)
		case <-s.down:
			// Drain tasks admitted before the shutdown fence; their stop
			// flags are pre-raised so each returns within milliseconds.
			for {
				select {
				case t := <-s.queue:
					s.runTask(w, t)
				default:
					return
				}
			}
		}
	}
}

// runTask executes one task with a stop flag wired to the request
// context (connection drop → Budget.Stop) and to server shutdown.
func (s *Server) runTask(w *workerCtx, t *task) {
	defer close(t.done)
	if t.ctx.Err() != nil {
		// Client went away while the task sat in the queue.
		s.met.cancelled.Add(1)
		return
	}
	var stop atomic.Bool
	select {
	case <-s.down:
		stop.Store(true)
	default:
	}
	unwatch := make(chan struct{})
	go func() {
		select {
		case <-t.ctx.Done():
			stop.Store(true)
			s.met.cancelled.Add(1)
		case <-s.down:
			stop.Store(true)
		case <-unwatch:
		}
	}()
	defer close(unwatch)
	exit := s.met.enterFlight()
	defer exit()
	w.stop = &stop

	// Contain panics to the one task that raised them: the request gets
	// a 500 (via task.panicked), the worker stays alive for the next
	// task, and the worker's warm solver state — which the unwind may
	// have left half-updated — is rebuilt from scratch.
	defer func() {
		if r := recover(); r != nil {
			t.panicked = true
			s.met.panics.Add(1)
			fault.RecordPanic("service.worker", r)
			w.resetSolvers()
		}
	}()
	if siteWorker.Fire() {
		fault.PanicAt("service.worker")
	}
	if siteStop.Fire() {
		// Simulated client-gone-at-dispatch: the task runs under a
		// pre-raised stop flag, so solves return budget timeouts and
		// classify sample runs come back truncated — deterministically.
		stop.Store(true)
	}
	t.run(w)
}

// submit admits a task, returning errOverloaded (429) on a full queue
// or errShuttingDown (503) once Shutdown has begun. On success it
// blocks until the worker finishes the task; if the request context
// dies first the worker observes it through the stop flag and finishes
// promptly, so the extra wait is bounded by the solver's cancellation
// latency (milliseconds).
func (s *Server) submit(ctx context.Context, deadline time.Time, run func(*workerCtx)) error {
	t := &task{ctx: ctx, deadline: deadline, run: run, done: make(chan struct{})}
	s.admitMu.RLock()
	if s.closing.Load() {
		s.admitMu.RUnlock()
		return errShuttingDown
	}
	if siteAdmit.Fire() {
		// Simulated allocation failure at admission: shed exactly like a
		// full queue.
		s.admitMu.RUnlock()
		s.met.rejected.Add(1)
		return errOverloaded
	}
	// The select cannot block: the send arm is paired with a default.
	// Holding the read lock across it is the admission fence — Shutdown
	// takes the write lock, flips closing, then drains, so a task
	// enqueued here is guaranteed to be seen by the drain loop.
	//lint:ignore lockdiscipline non-blocking send under the admission fence; both arms release the read lock immediately
	select {
	case s.queue <- t:
		s.admitMu.RUnlock()
		s.met.admitted.Add(1)
	default:
		s.admitMu.RUnlock()
		s.met.rejected.Add(1)
		return errOverloaded
	}
	select {
	case <-t.done:
		if t.panicked {
			return errWorkerPanic
		}
		return nil
	case <-ctx.Done():
		<-t.done
		return ctx.Err()
	}
}

// ---- request plumbing ----------------------------------------------

// MaxBodyBytes caps the body of one request, on a node and on the
// cluster router alike. The router re-encodes each sub-batch without
// HTML escaping, so an '&' reaches the node as the one byte the client
// sent, not as the six of "\u0026".
const MaxBodyBytes = 1 << 20

// WriteJSON writes v as the JSON body of a status answer. The cluster
// router answers through it too, so nodes and routers share one wire
// encoding.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	resp := ErrorResponse{Error: msg}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64((retryAfter+time.Second-1)/time.Second)))
		resp.RetryAfterMS = retryAfter.Milliseconds()
	}
	WriteJSON(w, status, resp)
}

// DecodeJSON reads a JSON request body of at most maxBytes into v. It
// rejects non-POST methods, unknown fields and malformed JSON.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) error {
	if r.Method != http.MethodPost {
		return fmt.Errorf("method %s not allowed (use POST)", r.Method)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func (s *Server) width(req uint) (uint, error) {
	if req == 0 {
		return s.cfg.DefaultWidth, nil
	}
	if req > 64 {
		return 0, fmt.Errorf("width %d out of range (1..64)", req)
	}
	return req, nil
}

// timeout resolves a requested budget to a concrete duration: the
// server default when unset, clamped to the server maximum.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// submitErrorStatus maps admission failures to HTTP status codes. A
// dead client gets the nginx-style 499 for metrics only (the write is
// never seen).
func submitErrorStatus(err error) int {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, errWorkerPanic):
		return http.StatusInternalServerError
	default:
		return 499
	}
}

func parseBasis(basis string) (disj bool, err error) {
	switch basis {
	case "", "conj":
		return false, nil
	case "disj":
		return true, nil
	default:
		return false, fmt.Errorf("unknown basis %q (want conj or disj)", basis)
	}
}

// ---- cache keys ----------------------------------------------------

// solveKey is purely semantic: the verdict of "a == b at width w" does
// not depend on the personality, the budget or preprocessing, so all
// solve variants share cache entries, and the two sides are order-
// normalized because equivalence is symmetric.
func solveKey(width uint, da, db expr.Digest) string {
	ka, kb := da.String(), db.String()
	if kb < ka {
		ka, kb = kb, ka
	}
	return fmt.Sprintf("solve|w%d|%s|%s", width, ka, kb)
}

func simplifyKey(width uint, disj, verify bool, d expr.Digest) string {
	return fmt.Sprintf("simplify|w%d|disj%t|v%t|%s", width, disj, verify, d)
}

// classifyKey is the execution/cache key of a classify item. Width,
// sample count and seed all change the sample payload, so they are all
// part of the key; the seed here is the resolved one (default applied),
// keeping explicit-default and implicit-default requests on one entry.
func classifyKey(width uint, samples int, seed uint64, d expr.Digest) string {
	return fmt.Sprintf("classify|w%d|n%d|seed%d|%s", width, samples, seed, d)
}

// ---- handlers ------------------------------------------------------

// The single-item endpoints run their request as a one-item batch:
// each handler decodes its request and applies only its endpoint's own
// rules, and serveOne does the rest on /v1/batch's per-group pipeline.

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	s.serveOne(w, r, PathSolve, &req, func() (BatchItem, int64, error) {
		if req.TimeoutMS < 0 {
			return BatchItem{}, 0, errors.New("timeout_ms must be non-negative")
		}
		// The request's own budget becomes the one-item job's deadline.
		timeoutMS := req.TimeoutMS
		req.TimeoutMS = 0
		return BatchItem{Solve: &req}, timeoutMS, nil
	})
}

func (s *Server) handleSimplify(w http.ResponseWriter, r *http.Request) {
	var req SimplifyRequest
	s.serveOne(w, r, PathSimplify, &req, func() (BatchItem, int64, error) {
		return BatchItem{Simplify: &req}, 0, nil
	})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req ClassifyRequest
	s.serveOne(w, r, PathClassify, &req, func() (BatchItem, int64, error) {
		return BatchItem{Classify: &req}, 0, nil
	})
}

// serveOne decodes a single-endpoint request into req, turns it into a
// batch item with its timeout (0 = server default), and answers it
// through the batch pipeline: parse, recall, submit, remember. Submit
// failures keep their HTTP mapping (429/503 with Retry-After, 499 for a
// client that went away, 500 for a contained panic).
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, path string, req any, item func() (BatchItem, int64, error)) {
	start := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(path, status, time.Since(start)) }()

	j, err := s.parseOne(w, r, start, req, item)
	if err != nil {
		status = http.StatusBadRequest
		s.writeError(w, status, err.Error())
		return
	}
	if !s.recall(j) {
		if err := s.runBatchGroup(r, j); err != nil {
			status = submitErrorStatus(err)
			s.writeError(w, status, err.Error())
			return
		}
	}
	WriteJSON(w, status, j.resp.withElapsed(durMS(time.Since(start))))
}

// parseOne decodes and validates a single-endpoint request into its job.
func (s *Server) parseOne(w http.ResponseWriter, r *http.Request, start time.Time, req any, item func() (BatchItem, int64, error)) (*job, error) {
	if err := DecodeJSON(w, r, req, MaxBodyBytes); err != nil {
		return nil, err
	}
	it, timeoutMS, err := item()
	if err != nil {
		return nil, err
	}
	return s.parseBatchItem(it, start.Add(s.timeout(timeoutMS)))
}

// runSimplify executes one simplification (optionally verified) on the
// worker. digest is e's canonical digest.
func (s *Server) runSimplify(wc *workerCtx, e *expr.Expr, digest expr.Digest, width uint, disj, verify bool, deadline time.Time) *SimplifyResponse {
	simplified := wc.simplifier(width, disj).Simplify(e)
	basis := "conj"
	if disj {
		basis = "disj"
	}
	resp := &SimplifyResponse{
		Input:      e.String(),
		Simplified: simplified.String(),
		Width:      width,
		Basis:      basis,
		Before:     MetricsOf(metrics.Measure(e)),
		After:      MetricsOf(metrics.Measure(simplified)),
		Hash:       digest.String(),
	}
	if verify {
		resp.Verify = s.runSolve(wc, e, simplified, width, solveSpec{
			solver:    "",
			conflicts: defaultConflicts,
			deadline:  deadline,
		})
	}
	return resp
}

// noteSubmitFailure records the request ID of a shed request (429/503)
// in the admission metrics ring so one batch's rejections can be
// correlated across a cluster from /debug/metrics alone.
func (s *Server) noteSubmitFailure(r *http.Request, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.met.noteShed(requestIDOf(r))
	}
}

// solveSpec bundles the execution parameters of one equivalence query.
type solveSpec struct {
	solver    string // personality name; "" = default, ignored if portfolio
	portfolio bool
	simplify  bool
	conflicts int64
	deadline  time.Time
}

// runSolve executes one equivalence query on the worker, observing the
// task's stop flag and absolute deadline, and records the verdict
// metrics.
func (s *Server) runSolve(wc *workerCtx, a, b *expr.Expr, width uint, spec solveSpec) *SolveResponse {
	remaining := time.Until(spec.deadline)
	if remaining <= 0 || wc.stop.Load() {
		resp := &SolveResponse{Status: smt.Timeout.String(), Reason: smt.ReasonBudget.String(), Width: width}
		s.met.verdict("none", resp.Status)
		return resp
	}
	if spec.simplify {
		simp := wc.simplifier(width, false)
		a, b = simp.Simplify(a), simp.Simplify(b)
	}
	budget := smt.Budget{
		Timeout:   remaining,
		Conflicts: spec.conflicts,
		Stop:      wc.stop,
	}
	// A solo solve is a one-engine portfolio of the named personality.
	set, name := wc.set, ""
	if !spec.portfolio {
		name = cmp.Or(spec.solver, "btorsim")
		set = wc.solo[name]
	}
	res := set.CheckEquiv(a, b, width, budget)
	resp := solveResponse(res.Result, width)
	resp.Solver = name
	if spec.portfolio {
		resp.Solver = res.Winner
		resp.Engines = EnginesOf(res.Engines)
		name = cmp.Or(res.Winner, portfolio.Name)
	}
	s.met.verdict(name, resp.Status)
	return resp
}

// solveResponse maps one solver result onto the wire.
func solveResponse(res smt.Result, width uint) *SolveResponse {
	return &SolveResponse{
		Status:       res.Status.String(),
		Reason:       res.Reason.String(),
		Witness:      res.Witness,
		Width:        width,
		Conflicts:    res.Conflicts,
		Propagations: res.Propagations,
		Rewritten:    res.Rewritten,
		ElapsedMS:    durMS(res.Elapsed),
	}
}

// maxClassifySamples caps one classify request's I/O sample count so a
// single item cannot hold a worker for an unbounded evaluation run.
const maxClassifySamples = 1024

// classifySeed is the default sampling seed when the request leaves
// Seed zero. It is a fixed constant so default-seeded sample streams
// are deterministic across processes and therefore cacheable.
const classifySeed = 0x5eed5eed5eed5eed

// runClassify computes metrics and, when samples > 0, draws the I/O
// sample block on the bitsliced bytecode engine. The worker's stop
// flag bounds sampling: a cancelled request returns the samples drawn
// so far (callers must not cache truncated answers). digest is e's
// canonical digest.
func runClassify(wc *workerCtx, e *expr.Expr, digest expr.Digest, width uint, samples int, seed uint64) *ClassifyResponse {
	resp := &ClassifyResponse{
		Input:   e.String(),
		Metrics: MetricsOf(metrics.Measure(e)),
		Hash:    digest.String(),
		Width:   width,
	}
	if samples > 0 {
		if prog, err := bitslice.Compile(e, width); err == nil {
			raw := bitslice.SampleIO(prog, samples, seed, wc.stop)
			pts := make([]IOPoint, len(raw))
			for i, sm := range raw {
				in := make(map[string]uint64, len(prog.Vars))
				for vi, name := range prog.Vars {
					in[name] = sm.Inputs[vi]
				}
				pts[i] = IOPoint{Inputs: in, Output: sm.Output}
			}
			resp.Samples = pts
		}
	}
	return resp
}

// handleHealth is pure liveness: the process is up and able to answer
// HTTP, so it always returns 200 — even while draining, when the body
// says so. Orchestrators restart on failed liveness; a draining server
// must not be restarted, merely taken out of rotation, which is the
// readiness endpoint's job.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	resp := HealthResponse{Status: "ok"}
	if s.closing.Load() {
		resp.Status = "draining"
	}
	WriteJSON(w, http.StatusOK, resp)
	s.met.observe(PathHealth, http.StatusOK, time.Since(start))
}

// handleReady is readiness: 200 exactly while the server admits work.
// The flag flips at the top of Shutdown — before in-flight budgets are
// cancelled and connections start dying — so a router polling this
// endpoint stops sending traffic to a draining node while the node can
// still finish what it already accepted.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	resp := HealthResponse{Status: "ok"}
	if s.closing.Load() {
		status = http.StatusServiceUnavailable
		resp.Status = "draining"
	}
	WriteJSON(w, status, resp)
	s.met.observe(PathReady, status, time.Since(start))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	WriteJSON(w, http.StatusOK, s.Metrics())
	s.met.observe(PathMetrics, http.StatusOK, time.Since(start))
}

package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mbasolver/internal/expr"
	"mbasolver/internal/parser"
	"mbasolver/internal/smt"
)

// This file implements POST /v1/batch: N solve/simplify requests in one
// call. The endpoint exists for the paper's actual workload shape —
// thousands of independent equivalence checks per dataset — where
// per-request HTTP+JSON overhead dominates once the solver is warm.
//
// Semantics:
//
//   - Items are answered in input order; a malformed item yields a
//     per-item error, never a failed batch.
//   - Structurally identical items (same canonical expr.Digest group
//     key, same execution options) are deduplicated: one solve runs and
//     its verdict fans out to every member of the group.
//   - The whole batch shares one absolute deadline (timeout_ms, server
//     default/clamp rules as for single requests); every group's
//     smt.Budget is cut from it, so a batch never holds workers past
//     its deadline.
//   - Groups execute on the ordinary worker pool under the ordinary
//     admission fence. A shed group (queue full, shutdown, contained
//     panic) degrades to a reasoned Unknown for solve items — the same
//     graceful-degradation contract the solver stack follows — rather
//     than failing the batch.

// ReasonUnavailable labels Unknown verdicts produced by the cluster
// layer (router or batch executor) when no node could answer an item:
// the shard's replicas were all dead, the admission queue shed the
// group, or the server was draining. It extends the solver's
// budget/resource/panic reason vocabulary on the wire.
const ReasonUnavailable = "unavailable"

// BatchRequest asks for many solve/simplify items in one call.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
	// TimeoutMS bounds the wall clock of the whole batch (0 = server
	// default; clamped to the server maximum). Every item's solver
	// budget is cut from this one deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchItem is one unit of batch work: exactly one of Solve, Simplify
// or Classify must be set.
type BatchItem struct {
	Solve    *SolveRequest    `json:"solve,omitempty"`
	Simplify *SimplifyRequest `json:"simplify,omitempty"`
	Classify *ClassifyRequest `json:"classify,omitempty"`
}

// kinds reports how many of the item's request fields are set.
func (it BatchItem) kinds() int {
	n := 0
	if it.Solve != nil {
		n++
	}
	if it.Simplify != nil {
		n++
	}
	if it.Classify != nil {
		n++
	}
	return n
}

// RouteKey returns the canonical routing key of the item. Cluster
// components consistent-hash this key so structurally identical work
// always lands on the same node, keeping that node's semantic LRU and
// incremental contexts hot for its shard. The key is derived from
// canonical digests, so textual variants of the same expression route
// together, and from parseItem, the node's own first validation step,
// so an item the router refuses carries exactly the node's error. A
// solve or simplify route key has the shape of the node's cache key
// but equals it only for an explicit width: with width 0 the route key
// embeds w0 while the node resolves its DefaultWidth. Solve keys are
// order-normalized (a vs b and b vs a route identically). Classify
// items route by expression alone: leaving out the sampling options
// keeps every sample variant of one expression on the node where its
// classify cache lives.
func (it BatchItem) RouteKey() (string, error) {
	p, err := parseItem(it)
	if err != nil {
		return "", err
	}
	switch p.kind {
	case kindSolve:
		return solveKey(p.reqWidth, p.da, p.db), nil
	case kindSimplify:
		return simplifyKey(p.reqWidth, p.disj, p.verify, p.digest), nil
	default:
		return "classify|" + p.digest.String(), nil
	}
}

// BatchItemResult is one item's answer. Exactly one of Solve, Simplify
// or Error is set for well-formed batches.
type BatchItemResult struct {
	// Index is the item's position in the request, so consumers of a
	// reassembled cluster response can verify ordering.
	Index    int               `json:"index"`
	Solve    *SolveResponse    `json:"solve,omitempty"`
	Simplify *SimplifyResponse `json:"simplify,omitempty"`
	Classify *ClassifyResponse `json:"classify,omitempty"`
	// Error reports a malformed item (bad expression, unknown solver) or
	// a non-degradable failure. Malformed items never fail the batch.
	Error string `json:"error,omitempty"`
	// Deduped marks items answered by another structurally-identical
	// item's run in the same batch.
	Deduped bool `json:"deduped,omitempty"`
	// Node is the backend that answered, stamped by the cluster router
	// (empty on direct single-node answers).
	Node string `json:"node,omitempty"`
}

// BatchResponse reports the whole batch, items in input order.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
	// Groups is the number of unique work groups after digest dedup;
	// Deduped counts items that shared another item's run; CacheHits
	// counts groups answered from the verdict cache without solving.
	Groups    int     `json:"groups"`
	Deduped   int     `json:"deduped"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// RequestID echoes X-Request-ID for cross-node correlation.
	RequestID string `json:"request_id,omitempty"`
}

// errBatchCanceled is the degradation cause of groups a batch never
// started because its client went away.
var errBatchCanceled = errors.New("client canceled the batch before the group ran")

// submitReason maps an admission failure to the degradation reason the
// batch reports for affected items.
func submitReason(err error) string {
	if errors.Is(err, errWorkerPanic) {
		return smt.ReasonPanic.String()
	}
	return ReasonUnavailable // overloaded, shutting down, client gone
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(PathBatch, status, time.Since(start)) }()

	var req BatchRequest
	if err := DecodeJSON(w, r, &req, MaxBodyBytes); err != nil {
		status = http.StatusBadRequest
		s.writeError(w, status, err.Error())
		return
	}
	if len(req.Items) == 0 {
		status = http.StatusBadRequest
		s.writeError(w, status, "batch has no items")
		return
	}
	if len(req.Items) > MaxBatchItems {
		status = http.StatusBadRequest
		s.writeError(w, status, fmt.Sprintf("batch has %d items, server cap is %d", len(req.Items), MaxBatchItems))
		return
	}

	deadline := start.Add(s.timeout(req.TimeoutMS))
	resp := &BatchResponse{
		Items:     make([]BatchItemResult, len(req.Items)),
		RequestID: requestIDOf(r),
	}
	jobs := s.planBatch(req.Items, deadline, resp)
	resp.Groups = len(jobs)

	// Answer from the verdict tier before spending a worker.
	var pending []*job
	for _, j := range jobs {
		if s.recall(j) {
			resp.CacheHits++
			continue
		}
		pending = append(pending, j)
	}

	// Execute the misses on the worker pool, at most Workers groups in
	// flight from this batch so one big batch cannot monopolize the
	// admission queue against interactive traffic. Slot acquisition
	// honors the client's context: when the client goes away mid-batch,
	// the groups not yet started degrade to reasoned Unknowns instead
	// of queueing work nobody will read.
	if len(pending) > 0 {
		sem := make(chan struct{}, s.cfg.Workers)
		var wg sync.WaitGroup
		for i, j := range pending {
			gone := false
			select {
			case sem <- struct{}{}:
			case <-r.Context().Done():
				gone = true
			}
			if gone {
				for _, left := range pending[i:] {
					s.met.noteShed(resp.RequestID)
					s.degrade(left, ReasonUnavailable, errBatchCanceled)
				}
				break
			}
			j := j
			wg.Add(1)
			go func() {
				defer wg.Done()
				//lint:ignore ctxflow releasing a held slot of a buffered semaphore never blocks
				defer func() { <-sem }()
				if err := s.runBatchGroup(r, j); err != nil {
					s.degrade(j, submitReason(err), err)
				}
			}()
		}
		wg.Wait()
	}

	// Fan each group's answer out to its members, in input order. The
	// answer is shared, not copied: nothing stamps per-item fields on it.
	for _, j := range jobs {
		for i, idx := range j.members {
			item := &resp.Items[idx]
			if j.errText != "" {
				item.Error = j.errText
			} else {
				j.resp.fill(item)
			}
			if i > 0 {
				item.Deduped = true
				resp.Deduped++
			}
		}
	}
	resp.ElapsedMS = durMS(time.Since(start))
	WriteJSON(w, status, resp)
}

// planBatch validates and parses every item, records per-item errors
// directly into resp, and groups the well-formed remainder by dedup
// key.
func (s *Server) planBatch(items []BatchItem, deadline time.Time, resp *BatchResponse) []*job {
	byKey := map[string]*job{}
	var order []*job
	for idx, it := range items {
		resp.Items[idx].Index = idx
		j, err := s.parseBatchItem(it, deadline)
		if err != nil {
			resp.Items[idx].Error = err.Error()
			continue
		}
		if existing, ok := byKey[j.group]; ok {
			existing.members = append(existing.members, idx)
			continue
		}
		j.members = append(j.members, idx)
		byKey[j.group] = j
		order = append(order, j)
	}
	return order
}

type jobKind int

const (
	kindSolve jobKind = iota
	kindSimplify
	kindClassify
)

// parsedItem is the server-independent half of an item's validation:
// the exactly-one-kind check, the request-only checks, parsing and the
// canonical digests. The router keys items from it and the node builds
// its jobs on it, so both refuse a malformed item with one error.
type parsedItem struct {
	kind     jobKind
	reqWidth uint        // the requested width; 0 = server default
	a, b     *expr.Expr  // solve operands
	da, db   expr.Digest // their canonical digests
	e        *expr.Expr  // simplify/classify input
	digest   expr.Digest // e's canonical digest
	disj     bool        // simplify basis
	verify   bool        // simplify proof request
}

// parseItem validates and parses one item without a server.
func parseItem(it BatchItem) (p parsedItem, err error) {
	if it.kinds() != 1 {
		return p, fmt.Errorf("batch item must set exactly one of solve, simplify, classify")
	}
	switch {
	case it.Solve != nil:
		req := it.Solve
		if req.TimeoutMS != 0 {
			return p, fmt.Errorf("batch items cannot set timeout_ms; the batch deadline is shared")
		}
		if req.Conflicts < 0 {
			return p, fmt.Errorf("conflicts must be non-negative")
		}
		if p.a, err = parser.Parse(req.A); err != nil {
			return p, fmt.Errorf("a: %w", err)
		}
		if p.b, err = parser.Parse(req.B); err != nil {
			return p, fmt.Errorf("b: %w", err)
		}
		p.kind, p.reqWidth = kindSolve, req.Width
		p.da, p.db = expr.Hash(p.a), expr.Hash(p.b)
		return p, nil
	case it.Simplify != nil:
		req := it.Simplify
		if p.disj, err = parseBasis(req.Basis); err != nil {
			return p, err
		}
		p.kind, p.reqWidth, p.verify = kindSimplify, req.Width, req.Verify
		return p, p.parseExpr(req.Expr)
	default:
		req := it.Classify
		if req.Samples < 0 {
			return p, fmt.Errorf("samples must be non-negative")
		}
		p.kind, p.reqWidth = kindClassify, req.Width
		return p, p.parseExpr(req.Expr)
	}
}

// parseExpr parses and digests a simplify or classify input.
func (p *parsedItem) parseExpr(text string) (err error) {
	if p.e, err = parser.Parse(text); err != nil {
		return fmt.Errorf("expr: %w", err)
	}
	p.digest = expr.Hash(p.e)
	return nil
}

// job is one parsed, validated unit of work: a deduplicated /v1/batch
// group, or a single-endpoint request run as a one-item batch.
type job struct {
	parsedItem
	// key is the semantic cache key, shared by the LRU and the store
	// and so by every endpoint; group extends it with the execution
	// options that change the answer's shape (solver choice, portfolio,
	// pre-simplification, conflict budget), so only genuinely identical
	// items share a run.
	key, group string
	members    []int // batch item indices the answer fans out to

	width   uint      // the resolved ring width
	spec    solveSpec // solve options; spec.deadline bounds every kind
	samples int       // classify sample count and seed
	seed    uint64

	// resp is the answer once recalled, run or degraded; errText
	// replaces it for a simplify or classify the pool could not run.
	resp    answer
	errText string
}

// parseBatchItem validates one item and builds its job: parseItem's
// server-independent checks, then the server's width default and cap,
// solver names, default budget and the key and group strings.
func (s *Server) parseBatchItem(it BatchItem, deadline time.Time) (*job, error) {
	p, err := parseItem(it)
	if err != nil {
		return nil, err
	}
	width, err := s.width(p.reqWidth)
	if err != nil {
		return nil, err
	}
	j := &job{parsedItem: p, width: width, spec: solveSpec{deadline: deadline}}
	switch p.kind {
	case kindSolve:
		req := it.Solve
		if !req.Portfolio && req.Solver != "" {
			if _, ok := s.solvers[req.Solver]; !ok {
				return nil, fmt.Errorf("unknown solver %q (want z3sim, stpsim or btorsim)", req.Solver)
			}
		}
		conflicts := req.Conflicts
		if conflicts == 0 {
			conflicts = defaultConflicts
		}
		j.key = solveKey(width, p.da, p.db)
		j.group = fmt.Sprintf("%s|s=%s|p=%t|pre=%t|c=%d", j.key, req.Solver, req.Portfolio, req.Simplify, conflicts)
		j.spec = solveSpec{
			solver:    req.Solver,
			portfolio: req.Portfolio,
			simplify:  req.Simplify,
			conflicts: conflicts,
			deadline:  deadline,
		}
	case kindClassify:
		req := it.Classify
		if req.Samples > maxClassifySamples {
			return nil, fmt.Errorf("samples %d above the server cap %d", req.Samples, maxClassifySamples)
		}
		j.samples, j.seed = req.Samples, req.Seed
		if j.seed == 0 {
			j.seed = classifySeed
		}
		j.key = classifyKey(width, j.samples, j.seed, p.digest)
		j.group = j.key
	default:
		j.key = simplifyKey(width, p.disj, p.verify, p.digest)
		j.group = j.key
	}
	return j, nil
}

// runBatchGroup executes one job on the worker pool and remembers its
// answer. A submit error leaves the answer to the caller: the batch
// degrades the group, a single endpoint maps the error to a status.
func (s *Server) runBatchGroup(r *http.Request, j *job) error {
	err := s.submit(r.Context(), j.spec.deadline, func(wc *workerCtx) {
		switch j.kind {
		case kindSolve:
			j.resp = s.runSolve(wc, j.a, j.b, j.width, j.spec)
		case kindClassify:
			j.resp = runClassify(wc, j.e, j.digest, j.width, j.samples, j.seed)
		default:
			j.resp = s.runSimplify(wc, j.e, j.digest, j.width, j.disj, j.verify, j.spec.deadline)
		}
	})
	if err != nil {
		s.noteSubmitFailure(r, submitErrorStatus(err))
		return err
	}
	s.remember(j)
	return nil
}

// degrade answers a job the pool never ran with the reasoned
// degradation the solver stack uses for shed work: a solve answers a
// reasoned Unknown (status timeout on the wire); a simplify or
// classify, which has no Unknown to degrade to, reports an error.
func (s *Server) degrade(j *job, reason string, cause error) {
	if j.kind != kindSolve {
		j.errText = fmt.Sprintf("%s: %v", reason, cause)
		return
	}
	j.resp = &SolveResponse{Status: smt.Unknown.String(), Reason: reason, Width: j.width}
	s.met.verdict("none", smt.Unknown.String())
}

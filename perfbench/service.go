package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/cluster"
	"mbasolver/internal/core"
	"mbasolver/internal/eval"
	"mbasolver/internal/eval/bitslice"
	"mbasolver/internal/expr"
	"mbasolver/internal/metrics"
	"mbasolver/internal/parser"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/smt"
	"mbasolver/internal/store"
)

// Service workload shape. Each client sends one /v1/batch at a time
// (closed loop) through the router to the single node. A batch holds
// 16 first sightings, 8 near repeats of the previous batch's first
// sightings (LRU hits), 6 far repeats from farDist batches back (LRU
// misses that the verdict store answers) and 2 in-batch duplicates
// (deduplicated). Only always-cacheable kinds are repeated: mutant
// solves, simplifications and classifications.
const (
	svcClients      = 2 // closed-loop connections, one per core of the reference machine
	svcSolveWidth   = 8
	svcWideWidth    = 64
	svcConflicts    = 20 // identity solves: a small budget keeps SAT a minor share of a batch
	svcSamples      = 64
	svcBatchTimeout = 60_000 // ms; generous so no deadline ever fires
	svcBlocks       = 6      // stratified pool blocks per client

	slotsIdentity  = 6
	slotsMutant    = 4
	slotsSimplify  = 4
	slotsClassify  = 2
	slotsFirst     = slotsIdentity + slotsMutant + slotsSimplify + slotsClassify
	slotsCacheable = slotsMutant + slotsSimplify + slotsClassify
	nearPerBatch   = 8
	farPerBatch    = 6
	dupPerBatch    = 2
)

type itemKind uint8

const (
	kindIdentity itemKind = iota
	kindMutant
	kindSimplify
	kindClassify
)

// itemSpec identifies one generated item: a pool equation offset by a
// constant k that makes every first sighting a distinct cache key.
type itemSpec struct {
	kind itemKind
	pool int
	k    uint64
	seq  int // first-sighting number within the client, for memo keys
}

// svcCache is the node's LRU capacity. It is large enough that the
// other client's insertions between a first sighting and its near
// repeat (about a batch or two) never evict it.
const svcCache = 128

// farDist is how many batches back a far repeat reaches: at least 4x
// the LRU capacity of the client's own cacheable insertions, so it
// always misses the LRU whatever the other client did meanwhile.
const farDist = (4*svcCache+slotsCacheable-1)/slotsCacheable + 2

type svcSizes struct {
	counted, blocks int // counted-pass batches per client, pool blocks per client
}

func serviceSizes(small bool) svcSizes {
	if small {
		return svcSizes{counted: 12, blocks: 1}
	}
	return svcSizes{counted: 100, blocks: svcBlocks}
}

// poolEq is one pool equation with its sides rendered once.
type poolEq struct {
	obf, ground   *expr.Expr
	obfS, groundS string
}

type svcClient struct {
	idx     int
	pool    []poolEq
	byClass [3][]int // pool indices of each class (linear, poly, non-poly)
	cl      *client.Client
	tr      *http.Transport
	next    int // next batch index

	// memo holds the verified answer of each first sighting, so a
	// repeat is checked by comparing with it.
	memo map[int]uint64
	sent []sentBatch // answered batches not yet verified, in order
}

// sentBatch is one answered batch, kept until verify checks it.
type sentBatch struct {
	j     int
	specs []itemSpec
	resp  *service.BatchResponse
	err   error
}

// batchCounts are the counted pass's deterministic counts of one client.
type batchCounts struct {
	batches, items, solves, decided, identities, identDecided int
	cached, deduped, nearCached, farCached                    int
	conflicts                                                 int64
	hash                                                      uint64
	computed                                                  []computedItem
}

// computedItem is one counted-pass item the node computed itself (not
// cached, not deduplicated); the traced run replays these.
type computedItem struct {
	spec itemSpec
	resp service.BatchItemResult
	pool []poolEq
}

type svcInst struct {
	sizes   svcSizes
	dir     string
	st      *store.Store
	node    *service.Server
	rt      *cluster.Router
	servers []*http.Server
	wg      sync.WaitGroup
	clients []*svcClient
	tracer  atomic.Pointer[tracer]
	opSeq   atomic.Int64

	passLeft atomic.Int32 // clients still inside their counted pass
	rss      float64      // peak RSS when the counted pass completed

	mu     sync.Mutex
	pass   [svcClients]batchCounts
	before service.MetricsSnapshot // node metrics when the last window began
	after  service.MetricsSnapshot // and when it ended
}

func setupService(cfg config) (instance, error) {
	s := &svcInst{sizes: serviceSizes(cfg.small)}
	dir, err := os.MkdirTemp(cfg.workdir, "store-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	if s.st, err = store.Open(dir, store.Options{}); err != nil {
		s.close()
		return nil, fmt.Errorf("store: %w", err)
	}
	// Fresh solvers per query keep every solve's work independent of
	// which worker ran it before, so verdicts and conflicts repeat.
	s.node = service.New(service.Config{
		CacheSize:          svcCache,
		DefaultWidth:       svcWideWidth,
		DefaultTimeout:     svcBatchTimeout * time.Millisecond,
		DisableIncremental: true,
		Store:              s.st,
	})
	nodeURL, err := s.serve(s.spanHandler("node", s.node.Handler()))
	if err != nil {
		s.close()
		return nil, err
	}
	s.rt, err = cluster.NewRouter(cluster.RouterConfig{
		Nodes:     []string{nodeURL},
		Transport: &spanTransport{inst: s, base: &http.Transport{MaxIdleConnsPerHost: 8}},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	routerURL, err := s.serve(s.spanHandler("router", s.rt.Handler()))
	if err != nil {
		s.close()
		return nil, err
	}
	for c := 0; c < svcClients; c++ {
		corpus := stratifiedCorpus(cfg.seed*1000+int64(c)+1, s.sizes.blocks)
		pool := make([]poolEq, len(corpus))
		var byClass [3][]int
		for i, eq := range corpus {
			pool[i] = poolEq{obf: eq.obf, ground: eq.ground, obfS: eq.obf.String(), groundS: eq.ground.String()}
			byClass[eq.kind] = append(byClass[eq.kind], i)
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		s.clients = append(s.clients, &svcClient{
			idx:     c,
			pool:    pool,
			byClass: byClass,
			tr:      tr,
			cl:      client.New(routerURL, client.WithHTTPClient(&http.Client{Transport: tr})),
			memo:    map[int]uint64{},
		})
	}
	// Warm-up: the first farDist batches of each client, so every timed
	// batch has its full mix of first sightings, near and far repeats.
	w := s.drive(func(sc *svcClient) bool { return sc.next < farDist }, nil)
	if failed := s.verify(); failed > 0 {
		s.close()
		return nil, fmt.Errorf("service warm-up: %d of %d batches failed their known-answer checks", failed, len(w.lat))
	}
	s.passLeft.Store(svcClients)
	return s, nil
}

// serve starts an HTTP server for h on a loopback port.
func (s *svcInst) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

func (s *svcInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, sc := range s.clients {
		sc.tr.CloseIdleConnections()
	}
	for i := len(s.servers) - 1; i >= 0; i-- {
		_ = s.servers[i].Shutdown(ctx) // a stuck connection cannot outlive the process
	}
	s.wg.Wait()
	if s.rt != nil {
		s.rt.Close()
	}
	if s.node != nil {
		_ = s.node.Shutdown(ctx) // every batch has been answered by now
	}
	if s.st != nil {
		if err := s.st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: store close:", err)
		}
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *svcInst) run(deadline time.Time, tr *tracer) window {
	s.tracer.Store(tr)
	defer s.tracer.Store(nil)
	counted := farDist + s.sizes.counted
	s.mu.Lock()
	s.before = s.node.Metrics()
	s.mu.Unlock()
	w := s.drive(func(sc *svcClient) bool {
		return sc.next < counted || time.Now().Before(deadline)
	}, tr)
	s.mu.Lock()
	s.after = s.node.Metrics()
	s.mu.Unlock()
	return w
}

// drive runs every client's closed loop while more(client) holds and
// merges their latencies.
func (s *svcInst) drive(more func(*svcClient) bool, tr *tracer) window {
	var mu sync.Mutex
	var w window
	var wg sync.WaitGroup
	for _, sc := range s.clients {
		sc := sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			for more(sc) {
				lat = append(lat, s.send(sc, tr))
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return w
}

// send builds and sends the client's next batch and keeps the answer
// for verify. It returns the caller-side latency.
func (s *svcInst) send(sc *svcClient, tr *tracer) time.Duration {
	j := sc.next
	sc.next++
	specs, req := s.batch(sc, j)
	op := s.opSeq.Add(1)
	ctx := client.WithRequestID(context.Background(), "op-"+strconv.FormatInt(op, 10))

	start := time.Now()
	sp := tr.begin("client", op, -1)
	resp, err := sc.cl.Batch(ctx, req)
	tr.end(sp)
	lat := time.Since(start)

	sc.sent = append(sc.sent, sentBatch{j: j, specs: specs, resp: resp, err: err})
	if j == farDist+s.sizes.counted-1 && s.passLeft.Add(-1) == 0 {
		s.rss = peakRSSMB()
	}
	return lat
}

// verify checks every batch answered since the last call, each
// client's in the order they were sent, and adds the counted pass's
// batches to the deterministic counts. It returns the number of
// batches with an item that contradicted its known answer.
func (s *svcInst) verify() int {
	failed := 0
	for _, sc := range s.clients {
		for _, b := range sc.sent {
			ok := b.err == nil && len(b.resp.Items) == len(b.specs)
			if ok {
				for i, spec := range b.specs {
					if !s.checkItem(sc, spec, b.resp.Items[i]) {
						ok = false
					}
				}
			}
			if !ok {
				failed++
			}
			if b.err == nil && b.j >= farDist && b.j < farDist+s.sizes.counted {
				s.count(sc, b.j, b.specs, b.resp)
			}
		}
		sc.sent = sc.sent[:0]
	}
	return failed
}

func (s *svcInst) passRSS() float64 { return s.rss }

func (s *svcInst) undecidedFrac() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	solves, decided := 0, 0
	for _, bc := range s.pass {
		solves += bc.solves
		decided += bc.decided
	}
	return ratio(solves-decided, solves)
}

// batch returns batch j of client sc: the item specs and the request.
func (s *svcInst) batch(sc *svcClient, j int) ([]itemSpec, service.BatchRequest) {
	specs := make([]itemSpec, 0, slotsFirst+nearPerBatch+farPerBatch+dupPerBatch)
	specs = append(specs, s.firsts(sc, j)...)
	if j >= 1 {
		prev := s.firsts(sc, j-1)
		for r := 0; r < nearPerBatch; r++ {
			specs = append(specs, prev[slotsIdentity+(j+r)%slotsCacheable])
		}
	}
	if j >= farDist {
		old := s.firsts(sc, j-farDist)
		for r := 0; r < farPerBatch; r++ {
			specs = append(specs, old[slotsIdentity+(j+r)%slotsCacheable])
		}
	}
	for r := 0; r < dupPerBatch; r++ {
		specs = append(specs, specs[(j+r*slotsFirst/dupPerBatch)%slotsFirst])
	}
	req := service.BatchRequest{Items: make([]service.BatchItem, len(specs)), TimeoutMS: svcBatchTimeout}
	for i, sp := range specs {
		req.Items[i] = makeItem(sc.pool, sp)
	}
	return specs, req
}

// firsts returns the first sightings of batch j: identity solves,
// mutant solves, simplifications and classifications, each over a
// pool equation plus a constant no other item of either client uses
// (the clients' constants differ in parity). The slots of each kind
// take the classes in turn, so every batch carries about the same mix
// of linear, poly and non-poly work.
func (s *svcInst) firsts(sc *svcClient, j int) []itemSpec {
	out := make([]itemSpec, 0, slotsFirst)
	add := func(kind itemKind, n int) {
		for i := 0; i < n; i++ {
			g := j*n + i // the kind's running slot number
			class := sc.byClass[g%3]
			seq := j*slotsFirst + len(out)
			out = append(out, itemSpec{
				kind: kind,
				pool: class[(g/3+int(kind)*len(class)/4)%len(class)],
				k:    uint64(2*seq + sc.idx + 2),
				seq:  seq,
			})
		}
	}
	add(kindIdentity, slotsIdentity)
	add(kindMutant, slotsMutant)
	add(kindSimplify, slotsSimplify)
	add(kindClassify, slotsClassify)
	return out
}

var personalityNames = []string{"z3sim", "stpsim", "btorsim"}

func makeItem(pool []poolEq, sp itemSpec) service.BatchItem {
	eq := pool[sp.pool]
	k := strconv.FormatUint(sp.k, 10)
	a := "(" + eq.obfS + ")+" + k
	switch sp.kind {
	case kindIdentity:
		return service.BatchItem{Solve: &service.SolveRequest{
			A: a, B: "(" + eq.groundS + ")+" + k, Width: svcSolveWidth,
			Solver: personalityNames[sp.seq%len(personalityNames)], Simplify: true, Conflicts: svcConflicts,
		}}
	case kindMutant:
		return service.BatchItem{Solve: &service.SolveRequest{
			A: a, B: "(" + eq.groundS + ")+" + strconv.FormatUint(sp.k+1, 10), Width: svcWideWidth,
			Solver: personalityNames[sp.seq%len(personalityNames)], Conflicts: svcConflicts,
		}}
	case kindSimplify:
		return service.BatchItem{Simplify: &service.SimplifyRequest{Expr: a, Width: svcWideWidth}}
	default:
		return service.BatchItem{Classify: &service.ClassifyRequest{Expr: a, Width: svcWideWidth, Samples: svcSamples, Seed: sp.k}}
	}
}

// refs returns the reference expressions of an item: obf+k and
// ground+k (ground+k+1 for a mutant).
func refs(pool []poolEq, sp itemSpec) (a, b *expr.Expr) {
	eq := pool[sp.pool]
	a = expr.Add(eq.obf, expr.Const(sp.k))
	if sp.kind == kindMutant {
		return a, expr.Add(eq.ground, expr.Const(sp.k+1))
	}
	return a, expr.Add(eq.ground, expr.Const(sp.k))
}

// checkItem applies the known-answer gate to one item. The first
// sighting is checked in full and its answer memoised; a repeat must
// match the memoised answer.
func (s *svcInst) checkItem(sc *svcClient, sp itemSpec, r service.BatchItemResult) bool {
	if r.Error != "" {
		return false
	}
	fp := answerHash(r)
	if prev, ok := sc.memo[sp.seq]; ok {
		return prev == fp
	}
	a, b := refs(sc.pool, sp)
	ok := false
	switch sp.kind {
	case kindIdentity:
		ok = r.Solve != nil && identityOK(statusOf(r.Solve.Status), r.Solve.Reason)
	case kindMutant:
		ok = r.Solve != nil && mutantOK(statusOf(r.Solve.Status), r.Solve.Witness, a, b, svcWideWidth)
	case kindSimplify:
		if r.Simplify != nil {
			out, err := parser.Parse(r.Simplify.Simplified)
			ok = err == nil && agree(a, out, svcWideWidth)
		}
	case kindClassify:
		if r.Classify != nil && len(r.Classify.Samples) == svcSamples {
			ok = true
			for _, pt := range r.Classify.Samples {
				if eval.Eval(a, pt.Inputs, svcWideWidth) != pt.Output {
					ok = false
					break
				}
			}
		}
	}
	// Undecided identities are not cached and may be recomputed; their
	// verdict is deterministic, so memoising it is still exact.
	if ok {
		sc.memo[sp.seq] = fp
	}
	return ok
}

func statusOf(s string) smt.Status {
	switch s {
	case smt.Equivalent.String():
		return smt.Equivalent
	case smt.NotEquivalent.String():
		return smt.NotEquivalent
	}
	return smt.Timeout
}

// answerHash fingerprints the answer part of an item result (not its
// cached/deduplicated flags or timings).
func answerHash(r service.BatchItemResult) uint64 {
	h := fnv.New64a()
	switch {
	case r.Solve != nil:
		fmt.Fprintf(h, "s|%s|%s|%d|%d|%t", r.Solve.Status, r.Solve.Reason, r.Solve.Conflicts, r.Solve.Propagations, r.Solve.Rewritten)
		names := make([]string, 0, len(r.Solve.Witness))
		for n := range r.Solve.Witness {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "|%s=%d", n, r.Solve.Witness[n])
		}
	case r.Simplify != nil:
		fmt.Fprintf(h, "p|%s", r.Simplify.Simplified)
	case r.Classify != nil:
		fmt.Fprintf(h, "c|%s|%d", r.Classify.Hash, len(r.Classify.Samples))
		for _, pt := range r.Classify.Samples {
			fmt.Fprintf(h, "|%d", pt.Output)
		}
	}
	return h.Sum64()
}

// count adds a counted-pass batch to the client's deterministic counts.
func (s *svcInst) count(sc *svcClient, j int, specs []itemSpec, resp *service.BatchResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bc := &s.pass[sc.idx]
	bc.batches++
	bc.deduped += resp.Deduped
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%d", bc.hash, j)
	for i, sp := range specs {
		r := resp.Items[i]
		bc.items++
		cached := isCached(r)
		if cached {
			bc.cached++
			switch {
			case i >= slotsFirst && i < slotsFirst+nearPerBatch && j >= 1:
				bc.nearCached++
			case i >= slotsFirst+nearPerBatch && i < slotsFirst+nearPerBatch+farPerBatch:
				bc.farCached++
			}
		}
		if r.Solve != nil {
			bc.solves++
			bc.conflicts += r.Solve.Conflicts
			decided := r.Solve.Status != smt.Timeout.String()
			if decided {
				bc.decided++
			}
			if sp.kind == kindIdentity {
				bc.identities++
				if decided {
					bc.identDecided++
				}
			}
		}
		fmt.Fprintf(h, "|%d:%x:%t:%t", i, answerHash(r), cached, r.Deduped)
		if !cached && !r.Deduped {
			bc.computed = append(bc.computed, computedItem{spec: sp, resp: r, pool: sc.pool})
		}
	}
	bc.hash = h.Sum64()
}

func isCached(r service.BatchItemResult) bool {
	switch {
	case r.Solve != nil:
		return r.Solve.Cached
	case r.Simplify != nil:
		return r.Simplify.Cached
	case r.Classify != nil:
		return r.Classify.Cached
	}
	return false
}

func (s *svcInst) counts() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.node.Metrics()
	out := map[string]any{}
	var sum batchCounts
	for c, bc := range s.pass {
		out[fmt.Sprintf("client%d_fingerprint", c)] = fmt.Sprintf("%016x", bc.hash)
		sum.batches += bc.batches
		sum.items += bc.items
		sum.solves += bc.solves
		sum.decided += bc.decided
		sum.identities += bc.identities
		sum.identDecided += bc.identDecided
		sum.cached += bc.cached
		sum.deduped += bc.deduped
		sum.nearCached += bc.nearCached
		sum.farCached += bc.farCached
		sum.conflicts += bc.conflicts
	}
	out["batches"] = sum.batches
	out["items"] = sum.items
	out["solves"] = sum.solves
	out["decided"] = sum.decided
	out["decided_frac"] = ratio(sum.decided, sum.solves)
	out["identities"] = sum.identities
	out["identities_decided"] = sum.identDecided
	out["cached"] = sum.cached
	out["deduped"] = sum.deduped
	out["near_cached"] = sum.nearCached
	out["far_cached"] = sum.farCached
	out["conflicts"] = sum.conflicts
	out["store_dropped"] = snap.Store.Dropped
	out["pool_rejected"] = snap.Pool.Rejected
	return out
}

// layers reports the per-layer split of the service path. Client,
// router, transport and node self times come from the traced window's
// spans; node-internal layers from replaying each item the node
// computed in the counted pass through parser, core, smt (and below)
// and bitslice.SampleIO.
func (s *svcInst) layers(tr *tracer, traced window) map[string]float64 {
	m := zeroLayers()
	tr.linkByOp("router", "client")
	tr.linkByOp("transport", "router")
	tr.linkByOp("node", "transport")
	self := tr.selfTimes()
	ops := float64(max(len(traced.lat), 1))
	m["client.self_ms"] = ms(self["client"]) / ops
	m["cluster.router_self_ms"] = ms(self["router"]) / ops
	m["cluster.forward_ms"] = ms(self["transport"]) / ops
	m["service.node_ms"] = ms(self["node"]) / ops

	s.mu.Lock()
	before, after := s.before, s.after
	counts := s.pass
	s.mu.Unlock()
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	m["service.cache_hit_frac"] = ratio(int(hits), int(hits+misses))
	m["service.rejected"] = float64(after.Pool.Rejected)
	if after.Store != nil && before.Store != nil {
		sh := after.Store.Hits - before.Store.Hits
		sm := after.Store.Misses - before.Store.Misses
		m["store.hit_frac"] = ratio(int(sh), int(sh+sm))
		m["store.puts"] = float64(after.Store.Puts - before.Store.Puts)
		m["store.dropped"] = float64(after.Store.Dropped)
		m["store.syncs"] = float64(after.Store.Syncs - before.Store.Syncs)
	}

	var batches, items, deduped, solves, decided int
	var computed []computedItem
	for _, bc := range counts {
		batches += bc.batches
		items += bc.items
		deduped += bc.deduped
		solves += bc.solves
		decided += bc.decided
		computed = append(computed, bc.computed...)
	}
	m["service.dedup_frac"] = ratio(deduped, items)
	m["smt.decided_frac"] = ratio(decided, solves)

	pers := personalities()
	solvers := map[string]*smt.Solver{}
	for _, sv := range smt.All() {
		solvers[sv.Name()] = sv
	}
	narrow := core.New(core.Options{Width: svcSolveWidth})
	wide := core.New(core.Options{Width: svcWideWidth})
	var rt replayTotals
	var parse, simp, check, sample time.Duration
	var queries, screened, rewritten, satBound, alt, simplified int
	var conflicts, props int64
	for i, ci := range computed {
		req := makeItem(ci.pool, ci.spec)
		start := time.Now()
		a, b, err := parseItem(req)
		parse += time.Since(start)
		tr.add("replay.parse", int64(i), time.Since(start))
		if err != nil {
			continue
		}
		switch ci.spec.kind {
		case kindIdentity, kindMutant:
			width := uint(svcWideWidth)
			if ci.spec.kind == kindIdentity {
				width = svcSolveWidth
				t0 := time.Now()
				a, b = narrow.Simplify(a), narrow.Simplify(b)
				simp += time.Since(t0)
				alt += metrics.Alternation(a)
				simplified++
			}
			name := req.Solve.Solver
			ta, tb := bv.FromExpr(a, width), bv.FromExpr(b, width)
			t0 := time.Now()
			res := solvers[name].CheckTermEquiv(ta, tb, smt.Budget{Conflicts: svcConflicts})
			check += time.Since(t0)
			// The node's own verdict is what the replay must reproduce.
			real := res
			real.Status, real.Conflicts = statusOf(ci.resp.Solve.Status), ci.resp.Solve.Conflicts
			rt.add(replayQuery(ta, tb, pers[name], svcConflicts, real), real)
			queries++
			conflicts += res.Conflicts
			props += res.Propagations
			switch {
			case res.Screened:
				screened++
			case res.Rewritten:
				rewritten++
			default:
				satBound++
			}
		case kindSimplify:
			t0 := time.Now()
			out := wide.Simplify(a)
			simp += time.Since(t0)
			alt += metrics.Alternation(out)
			simplified++
		case kindClassify:
			t0 := time.Now()
			if prog, err := bitslice.Compile(a, svcWideWidth); err == nil {
				bitslice.SampleIO(prog, svcSamples, ci.spec.k, nil)
			}
			sample += time.Since(t0)
		}
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(max(batches, 1)) }
	rt.fill(m, batches)
	m["parser.parse_ms"] = per(parse)
	m["core.simplify_ms"] = per(simp)
	m["bitslice.sample_ms"] = per(sample)
	m["smt.check_ms"] = per(check)
	m["smt.unattributed_ms"] = m["smt.check_ms"] - (m["bitslice.screen_ms"] + m["bv.rewrite_ms"] + m["bitblast.blast_ms"] + m["sat.solve_ms"])
	m["smt.screened_frac"] = ratio(screened, queries)
	m["smt.rewritten_frac"] = ratio(rewritten, queries)
	m["smt.sat_frac"] = ratio(satBound, queries)
	m["sat.conflicts"] = float64(conflicts) / float64(max(queries, 1))
	m["sat.propagations"] = float64(props) / float64(max(queries, 1))
	cs := addStats(narrow.Stats(), wide.Stats())
	m["core.table_hit_frac"] = ratio(cs.TableHits, cs.TableHits+cs.TableMisses)
	m["core.signatures_per_op"] = ratio(cs.Signatures, batches)
	m["core.alternation_out"] = ratio(alt, simplified)
	return m
}

// parseItem parses an item's expressions as the node does.
func parseItem(it service.BatchItem) (a, b *expr.Expr, err error) {
	switch {
	case it.Solve != nil:
		if a, err = parser.Parse(it.Solve.A); err != nil {
			return nil, nil, err
		}
		b, err = parser.Parse(it.Solve.B)
		return a, b, err
	case it.Simplify != nil:
		a, err = parser.Parse(it.Simplify.Expr)
		return a, nil, err
	default:
		a, err = parser.Parse(it.Classify.Expr)
		return a, nil, err
	}
}

// opOf extracts the op number from an "op-<n>" request ID.
func opOf(r *http.Request) int64 {
	id, ok := strings.CutPrefix(r.Header.Get(service.HeaderRequestID), "op-")
	if !ok {
		return -1
	}
	n, err := strconv.ParseInt(id, 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// spanHandler wraps a public Handler() in a span named name while a
// tracer is installed.
func (s *svcInst) spanHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tracer.Load()
		sp := tr.begin(name, opOf(r), -1)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// spanTransport is the router's outbound RoundTripper; while a tracer
// is installed it records each forward from request to the close of
// the response body.
type spanTransport struct {
	inst *svcInst
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.inst.tracer.Load()
	sp := tr.begin("transport", opOf(r), -1)
	res, err := t.base.RoundTrip(r)
	if err != nil || tr == nil {
		tr.end(sp)
		return res, err
	}
	res.Body = &spanBody{ReadCloser: res.Body, end: func() { tr.end(sp) }}
	return res, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

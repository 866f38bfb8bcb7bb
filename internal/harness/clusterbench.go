package harness

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/cluster"
	"mbasolver/internal/gen"
	"mbasolver/internal/service"
	"mbasolver/internal/service/client"
	"mbasolver/internal/smt"
	"mbasolver/internal/store"
)

// ClusterBenchConfig sizes the sharded-cluster benchmark: the same
// known-answer batch driven through a router at several node counts,
// cold (empty shard caches) and warm (the identical batch re-sent, so
// every item should ride its owner node's verdict cache). Zero fields
// take defaults.
type ClusterBenchConfig struct {
	// NodeCounts are the cluster sizes to compare (default 1,2,3).
	NodeCounts []int `json:"node_counts"`
	// Samples is the number of proved-equivalent corpus equations; each
	// contributes a refuted off-by-one variant too, so the batch holds
	// 2*Samples items with known verdicts (default 12).
	Samples int   `json:"samples"`
	Seed    int64 `json:"seed"`  // corpus generator seed (default 11)
	Width   uint  `json:"width"` // bitvector width (default 8)
	// WarmRepeats is how many times the identical batch is re-sent to
	// measure the warm-shard rate (default 3).
	WarmRepeats int `json:"warm_repeats"`
	// Conflicts is the per-item CDCL budget (default 200000).
	Conflicts int64 `json:"conflicts"`
	// Workers is the per-node pool size (default 1 — deliberately
	// minimal so node count, not core count, is the varied resource
	// when all nodes share one machine: N nodes = N solver workers).
	Workers int `json:"workers"`
}

func (c ClusterBenchConfig) withDefaults() ClusterBenchConfig {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 2, 3}
	}
	if c.Samples <= 0 {
		c.Samples = 12
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.WarmRepeats <= 0 {
		c.WarmRepeats = 3
	}
	if c.Conflicts == 0 {
		c.Conflicts = 200_000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// ClusterBenchRun is one (node count, phase) measurement.
type ClusterBenchRun struct {
	Nodes int    `json:"nodes"`
	Phase string `json:"phase"` // "cold", "warm", "store-cold" or "store-restart"
	// Batches and Queries are totals over the phase (warm phases send
	// WarmRepeats identical batches).
	Batches    int     `json:"batches"`
	Queries    int     `json:"queries"`
	WallMS     float64 `json:"wall_ms"`
	Throughput float64 `json:"throughput_qps"` // queries per wall second
	CacheHits  int     `json:"cache_hits"`
	Degraded   int     `json:"degraded"` // reasoned Unknowns (should be 0 — no faults here)
	ShardsUsed int     `json:"shards_used"`
	// RingOwners counts the distinct ring owners of the batch's route
	// keys: the nodes the batch lands on when no forward fails, which
	// ShardsUsed must then equal.
	RingOwners int `json:"ring_owners"`
	// StoreHits counts queries answered from the persistent verdict
	// store (second-level lookups behind the LRU); non-zero only in the
	// store phases.
	StoreHits int `json:"store_hits"`
}

// ClusterBenchReport is the full result, serialized to
// BENCH_cluster.json by scripts/bench.sh.
type ClusterBenchReport struct {
	Config ClusterBenchConfig `json:"config"`
	// Cores is the machine's core count — the hard ceiling on cold
	// scaling when every "node" is in-process: N single-worker nodes on
	// C cores can speed up cold compute by at most min(N, C). On one
	// core the cold ratios hover near 1.0 and the warm rows carry the
	// locality story; on a real deployment each node brings its own
	// cores and the cold ratios are the capacity story.
	Cores int               `json:"cores"`
	Runs  []ClusterBenchRun `json:"runs"`
	// ColdWarmSpeedup is cold wall over per-batch warm wall, keyed by
	// node count — the value of a warm shard.
	ColdWarmSpeedup map[string]float64 `json:"cold_warm_speedup"`
	// ColdScaling is cold throughput at each node count over cold
	// throughput at the smallest count — the compute-bound scaling
	// adding nodes buys. WarmScaling is the same ratio for warm
	// batches, which are cache-hit bound: with every verdict a shard
	// cache hit, the HTTP fan-out is the cost, so warm scaling below
	// 1.0 at higher node counts is expected on one machine and the
	// cold number is the capacity story.
	ColdScaling map[string]float64 `json:"cold_scaling"`
	WarmScaling map[string]float64 `json:"warm_scaling"`
	// RestartSpeedup is store-cold wall over store-restart wall at the
	// largest node count: how much faster the identical batch completes
	// when every node recovers its persistent verdict log at boot and
	// serves from disk instead of re-solving. Fresh processes, cold
	// LRUs — the speedup is purely the on-disk state.
	RestartSpeedup float64 `json:"restart_speedup"`
	// Mismatches counts items whose definitive verdict disagreed with
	// the known ground truth, across every run; anything but zero is a
	// correctness bug.
	Mismatches int `json:"mismatches"`
}

// clusterBenchQuery is one known-answer batch item.
type clusterBenchQuery struct {
	a, b string
	want smt.Status
}

// clusterBenchCorpus builds the known-answer workload: Samples
// screened-equivalent linear MBA pairs plus an off-by-one refuted
// variant of each, rendered to source (the wire carries text, and the
// print/re-parse round trip is digest-stable, so client-side and
// node-side hashing agree).
func clusterBenchCorpus(cfg ClusterBenchConfig) []clusterBenchQuery {
	g := gen.New(gen.Config{Seed: cfg.Seed, LinearTerms: 4, CoeffRange: 3})
	screen := smt.NewZ3Sim()
	out := make([]clusterBenchQuery, 0, 2*cfg.Samples)
	kept := 0
	for attempts := 0; kept < cfg.Samples && attempts < 20*cfg.Samples; attempts++ {
		s := g.Linear()
		lhs, rhs := s.Equation()
		ta, tb := bv.FromExpr(lhs, cfg.Width), bv.FromExpr(rhs, cfg.Width)
		if screen.CheckTermEquiv(ta, tb, smt.Budget{Conflicts: 10_000}).Status != smt.Equivalent {
			continue
		}
		kept++
		out = append(out,
			clusterBenchQuery{lhs.String(), rhs.String(), smt.Equivalent},
			clusterBenchQuery{lhs.String(), fmt.Sprintf("(%s)+1", rhs.String()), smt.NotEquivalent},
		)
	}
	return out
}

// benchCluster is one booted cluster: n service nodes behind a router
// behind an HTTP front.
type benchCluster struct {
	nodes  []*service.Server
	fronts []*httptest.Server
	stores []*store.Store
	addrs  []string // per-node listen addresses, reusable across a reboot
	router *cluster.Router
	front  *httptest.Server
	client *client.Client
}

// bootBenchCluster boots n nodes behind a router. storeDirs, when
// non-nil, backs node i with a persistent verdict store at
// storeDirs[i]. addrs, when non-nil, pins each node's listen address:
// the restart phase reboots on the first boot's addresses because the
// router's consistent-hash ring keys on node URLs — same addresses,
// same shard assignment, so every query returns to the node whose
// store holds its verdict.
func bootBenchCluster(cfg ClusterBenchConfig, n int, storeDirs, addrs []string) (*benchCluster, error) {
	bc := &benchCluster{}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		addr := "127.0.0.1:0"
		if addrs != nil {
			addr = addrs[i]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			bc.close()
			return nil, fmt.Errorf("node %d listen on %s: %w", i, addr, err)
		}
		nodeCfg := service.Config{
			Workers:        cfg.Workers,
			DefaultTimeout: 60 * time.Second,
			MaxTimeout:     120 * time.Second,
		}
		if storeDirs != nil {
			st, err := store.Open(storeDirs[i], store.Options{})
			if err != nil {
				ln.Close()
				bc.close()
				return nil, fmt.Errorf("node %d store: %w", i, err)
			}
			bc.stores = append(bc.stores, st)
			nodeCfg.Store = st
		}
		svc := service.New(nodeCfg)
		ts := httptest.NewUnstartedServer(svc.Handler())
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		bc.nodes = append(bc.nodes, svc)
		bc.fronts = append(bc.fronts, ts)
		bc.addrs = append(bc.addrs, ln.Addr().String())
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:         urls,
		ProbeInterval: -1, // all nodes are in-process and healthy; passive marking suffices
	})
	if err != nil {
		bc.close()
		return nil, err
	}
	bc.router = rt
	bc.front = httptest.NewServer(rt.Handler())
	bc.client = client.New(bc.front.URL)
	return bc, nil
}

func (bc *benchCluster) close() {
	if bc.front != nil {
		bc.front.Close()
	}
	if bc.router != nil {
		bc.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, svc := range bc.nodes {
		_ = svc.Shutdown(ctx)
		bc.fronts[i].Close()
	}
	// Stores close after their services drain: Close flushes the pending
	// channel and fsyncs, so everything the phase computed is on disk
	// for the next boot.
	for _, st := range bc.stores {
		_ = st.Close()
	}
}

// storeHits sums second-level store lookups served across every node;
// zero when the cluster runs memory-only.
func (bc *benchCluster) storeHits() int {
	total := 0
	for _, st := range bc.stores {
		total += int(st.Snapshot().Hits)
	}
	return total
}

// ringOwners counts the distinct owners of req's route keys on a ring
// over the cluster's node URLs, the ring its router routes by.
func (bc *benchCluster) ringOwners(req service.BatchRequest) (int, error) {
	urls := make([]string, len(bc.fronts))
	for i, f := range bc.fronts {
		urls[i] = f.URL
	}
	ring, err := cluster.NewRing(urls)
	if err != nil {
		return 0, err
	}
	owners := map[string]bool{}
	for _, it := range req.Items {
		key, err := it.RouteKey()
		if err != nil {
			return 0, err
		}
		owners[ring.Lookup(key)] = true
	}
	return len(owners), nil
}

// runClusterPhase drives `batches` identical copies of req through the
// cluster and checks every definitive verdict against the corpus
// ground truth. It returns the measured run plus the number of verdict
// mismatches for the caller's report.
func runClusterPhase(ctx context.Context, bc *benchCluster, req service.BatchRequest, corpus []clusterBenchQuery, n int, phase string, batches int) (ClusterBenchRun, int, error) {
	run := ClusterBenchRun{Nodes: n, Phase: phase, Batches: batches}
	mismatches := 0
	shards := map[string]bool{}
	hitsBefore := bc.storeHits()
	start := time.Now()
	for b := 0; b < batches; b++ {
		resp, err := bc.client.Batch(ctx, req)
		if err != nil {
			return run, mismatches, fmt.Errorf("%d nodes, %s batch %d: %w", n, phase, b, err)
		}
		run.Queries += len(resp.Items)
		run.CacheHits += resp.CacheHits
		for i, it := range resp.Items {
			if it.Solve == nil {
				return run, mismatches, fmt.Errorf("%d nodes, %s: item %d missing result: %+v", n, phase, i, it)
			}
			shards[it.Node] = true
			switch it.Solve.Status {
			case smt.Timeout.String():
				run.Degraded++
			case corpus[i].want.String():
			default:
				mismatches++
			}
		}
	}
	wall := time.Since(start)
	run.WallMS = durMSf(wall)
	if wall > 0 {
		run.Throughput = float64(run.Queries) / wall.Seconds()
	}
	run.ShardsUsed = len(shards)
	owners, err := bc.ringOwners(req)
	if err != nil {
		return run, mismatches, err
	}
	run.RingOwners = owners
	run.StoreHits = bc.storeHits() - hitsBefore
	return run, mismatches, nil
}

// RunClusterBench measures routed batch throughput at each configured
// node count, cold and warm, against one fixed known-answer workload,
// then reruns the largest cluster with per-node persistent stores
// through a full stop-and-reboot cycle to price a warm restart.
// Every definitive verdict is checked against ground truth; the report
// carries the mismatch count (must be zero) alongside the timings, so
// the benchmark doubles as a distributed differential test.
func RunClusterBench(cfg ClusterBenchConfig) (ClusterBenchReport, error) {
	cfg = cfg.withDefaults()
	corpus := clusterBenchCorpus(cfg)
	report := ClusterBenchReport{
		Config:          cfg,
		Cores:           runtime.NumCPU(),
		ColdWarmSpeedup: map[string]float64{},
		ColdScaling:     map[string]float64{},
		WarmScaling:     map[string]float64{},
	}

	req := service.BatchRequest{}
	for _, q := range corpus {
		req.Items = append(req.Items, service.BatchItem{
			Solve: &service.SolveRequest{A: q.a, B: q.b, Width: cfg.Width, Conflicts: cfg.Conflicts},
		})
	}

	baseColdQPS, baseWarmQPS := 0.0, 0.0
	for _, n := range cfg.NodeCounts {
		bc, err := bootBenchCluster(cfg, n, nil, nil)
		if err != nil {
			return report, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)

		cold, mm, err := runClusterPhase(ctx, bc, req, corpus, n, "cold", 1)
		report.Mismatches += mm
		if err == nil {
			var warm ClusterBenchRun
			warm, mm, err = runClusterPhase(ctx, bc, req, corpus, n, "warm", cfg.WarmRepeats)
			report.Mismatches += mm
			if err == nil {
				report.Runs = append(report.Runs, cold, warm)
				key := fmt.Sprintf("%d", n)
				perBatchWarm := warm.WallMS / float64(warm.Batches)
				if perBatchWarm > 0 {
					report.ColdWarmSpeedup[key] = cold.WallMS / perBatchWarm
				}
				if baseColdQPS == 0 {
					baseColdQPS = cold.Throughput
				}
				if baseColdQPS > 0 {
					report.ColdScaling[key] = cold.Throughput / baseColdQPS
				}
				if baseWarmQPS == 0 {
					baseWarmQPS = warm.Throughput
				}
				if baseWarmQPS > 0 {
					report.WarmScaling[key] = warm.Throughput / baseWarmQPS
				}
			}
		}
		cancel()
		bc.close()
		if err != nil {
			return report, err
		}
	}

	// Warm-restart pricing: the largest cluster again, this time with a
	// persistent verdict store per node. "store-cold" fills the logs
	// from scratch; the cluster is then fully torn down (a clean close
	// drains the group commits onto disk) and rebooted from the same
	// directories on the same addresses, and "store-restart" measures
	// the identical batch served from recovered state — fresh
	// processes, cold LRUs, warm disks.
	nMax := 0
	for _, n := range cfg.NodeCounts {
		if n > nMax {
			nMax = n
		}
	}
	storeDirs := make([]string, nMax)
	for i := range storeDirs {
		dir, err := os.MkdirTemp("", "mbabench-store-")
		if err != nil {
			return report, fmt.Errorf("store dir: %w", err)
		}
		defer os.RemoveAll(dir)
		storeDirs[i] = dir
	}

	bc, err := bootBenchCluster(cfg, nMax, storeDirs, nil)
	if err != nil {
		return report, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	storeCold, mm, err := runClusterPhase(ctx, bc, req, corpus, nMax, "store-cold", 1)
	report.Mismatches += mm
	cancel()
	addrs := bc.addrs
	bc.close()
	if err != nil {
		return report, err
	}

	bc, err = bootBenchCluster(cfg, nMax, storeDirs, addrs)
	if err != nil {
		return report, err
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Minute)
	storeRestart, mm, err := runClusterPhase(ctx, bc, req, corpus, nMax, "store-restart", 1)
	report.Mismatches += mm
	cancel()
	bc.close()
	if err != nil {
		return report, err
	}
	report.Runs = append(report.Runs, storeCold, storeRestart)
	if storeRestart.WallMS > 0 {
		report.RestartSpeedup = storeCold.WallMS / storeRestart.WallMS
	}
	return report, nil
}

package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/parser"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/smt"
)

// BenchConfig sizes the incremental-vs-fresh solver benchmark. The
// workload is a repeated corpus: every equation is queried Repeats
// times in round-robin order, which is the query mix incremental
// contexts exist for (verification pipelines re-check the same or
// structurally overlapping equations as obfuscated binaries are
// re-analyzed). Zero fields take defaults.
type BenchConfig struct {
	Samples int   `json:"samples"` // linear corpus equations (default 6)
	Seed    int64 `json:"seed"`    // corpus generator seed (default 11)
	Width   uint  `json:"width"`   // solver bitvector width (default 8)
	Repeats int   `json:"repeats"` // round-robin passes over the corpus (default 4)
	// Conflicts is the per-query CDCL budget (default 200000 — enough
	// that the small linear corpus solves outright in both modes, so
	// the comparison measures speed, not solve rate).
	Conflicts int64 `json:"conflicts"`
}

func (c BenchConfig) withDefaults() BenchConfig {
	if c.Samples <= 0 {
		c.Samples = 6
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Repeats <= 0 {
		c.Repeats = 4
	}
	if c.Conflicts == 0 {
		c.Conflicts = 200_000
	}
	return c
}

// BenchRun reports one (solver, mode) pass over the repeated corpus.
type BenchRun struct {
	Solver   string  `json:"solver"`
	Mode     string  `json:"mode"` // "fresh" or "incremental"
	WallMS   float64 `json:"wall_ms"`
	Queries  int     `json:"queries"`
	Solved   int     `json:"solved"`
	Timeouts int     `json:"timeouts"`
	// Conflicts is the total CDCL conflicts spent across the pass — the
	// deterministic "search effort" the wall clock is buying.
	Conflicts int64 `json:"conflicts"`

	// Incremental-only observability (zero for fresh runs): interning
	// and encoding reuse, activation-literal reuse, and the size of the
	// shared circuit left in the context's persistent solvers.
	InternHits    int64   `json:"intern_hits,omitempty"`
	BlastHitRate  float64 `json:"blast_hit_rate,omitempty"` // encoding-cache hits / lookups
	GateHitRate   float64 `json:"gate_hit_rate,omitempty"`  // gate-hash hits / lookups
	ActHits       int64   `json:"act_hits,omitempty"`       // queries answered via a reused activation literal
	CircuitVars   int     `json:"circuit_vars,omitempty"`
	CircuitClause int     `json:"circuit_clauses,omitempty"`
}

// BenchReport is the full benchmark result, serialized to
// BENCH_solver.json by scripts/bench.sh.
type BenchReport struct {
	Config BenchConfig `json:"config"`
	Runs   []BenchRun  `json:"runs"`
	// Speedup is fresh wall time over incremental wall time, per solver
	// and overall (total fresh wall / total incremental wall).
	Speedup map[string]float64 `json:"speedup"`
	Overall float64            `json:"overall_speedup"`
	// Mismatches counts queries where the two modes returned different
	// definitive verdicts; anything but zero is a bug (the differential
	// tests in internal/smt pin this).
	Mismatches int `json:"mismatches"`
	// Parallel is the clause-sharing + cube-and-conquer comparison
	// (RunParallelBench), attached by mbabench -bench.
	Parallel *ParallelBench `json:"parallel,omitempty"`
}

// ParallelBenchConfig sizes the sharing+cubes benchmark. The workload
// is the multiplier MBA identity x*y == (x&~y)*(~x&y) + (x&y)*(x|y)
// instantiated at several widths, plus an off-by-one refuted variant
// per width: width is a clean hardness dial for the same structure
// (the 8-bit instance needs ~100k conflicts solo), so a fixed
// per-query conflict budget cleanly separates what each mode can
// decide. Conflict budgets, not wall clock, are the yardstick — the
// comparison is deterministic and meaningful on any core count.
type ParallelBenchConfig struct {
	Widths    []uint `json:"widths"`    // identity widths (default 6,7,8,9)
	Conflicts int64  `json:"conflicts"` // per-query conflict budget (default 20000)
}

func (c ParallelBenchConfig) withDefaults() ParallelBenchConfig {
	if len(c.Widths) == 0 {
		c.Widths = []uint{6, 7, 8, 9}
	}
	if c.Conflicts == 0 {
		c.Conflicts = 20_000
	}
	return c
}

// ParallelBenchRun is one (query, mode) measurement.
type ParallelBenchRun struct {
	Width     uint    `json:"width"`
	Query     string  `json:"query"` // "identity" or "refuted"
	Mode      string  `json:"mode"`  // "solo" or "share+cubes"
	Status    string  `json:"status"`
	Winner    string  `json:"winner,omitempty"`
	Conflicts int64   `json:"conflicts"`
	WallMS    float64 `json:"wall_ms"`
}

// ParallelBench compares the plain first-verdict-wins race ("solo")
// against the cooperating portfolio ("share+cubes": clause sharing
// during the race, cube-and-conquer fallback when the screen cannot
// decide) at a fixed per-query conflict budget. The headline numbers
// are the timeout counts: cubing converts budget-starved timeouts into
// verdicts because each cube spends the budget on a strictly smaller
// subproblem. Cores records runtime.NumCPU() for the run — on a
// single-core machine the wall-clock columns measure interleaved
// execution and only the conflict/timeout columns are comparable
// across machines.
type ParallelBench struct {
	Config           ParallelBenchConfig `json:"config"`
	Cores            int                 `json:"cores"`
	Runs             []ParallelBenchRun  `json:"runs"`
	SoloTimeouts     int                 `json:"solo_timeouts"`
	ParallelTimeouts int                 `json:"parallel_timeouts"`
	// Mismatches counts queries where the two modes returned different
	// definitive verdicts; anything but zero is a soundness bug (the
	// differential tests in internal/smt and internal/portfolio pin
	// this).
	Mismatches int `json:"mismatches"`
}

// RunParallelBench measures the solo race against sharing+cubes on the
// width-graded multiplier identity family.
func RunParallelBench(cfg ParallelBenchConfig) ParallelBench {
	cfg = cfg.withDefaults()
	report := ParallelBench{Config: cfg, Cores: runtime.NumCPU()}

	identA := parser.MustParse("x*y")
	identB := parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y)")
	refutedB := parser.MustParse("(x&~y)*(~x&y) + (x&y)*(x|y) + 1")

	budget := smt.Budget{Conflicts: cfg.Conflicts}
	cubeOpts := &smt.CubeOptions{ScreenConflicts: 2000, Workers: 2, ShareCapacity: 256}
	queries := []struct {
		name string
		b    *expr.Expr
	}{{"identity", identB}, {"refuted", refutedB}}

	for _, w := range cfg.Widths {
		for _, q := range queries {
			verdicts := make(map[string]smt.Status)
			for _, mode := range []string{"solo", "share+cubes"} {
				start := time.Now()
				opts := portfolio.Options{}
				if mode == "share+cubes" {
					opts = portfolio.Options{Share: true, Cubes: cubeOpts}
				}
				res := portfolio.New(smt.All(), opts).CheckEquiv(identA, q.b, w, budget)
				run := ParallelBenchRun{
					Width:  w,
					Query:  q.name,
					Mode:   mode,
					Status: res.Status.String(),
					Winner: res.Winner,
					WallMS: durMSf(time.Since(start)),
				}
				for _, e := range res.Engines {
					run.Conflicts += e.Conflicts
				}
				report.Runs = append(report.Runs, run)
				verdicts[mode] = res.Status
				if res.Status == smt.Timeout {
					if mode == "solo" {
						report.SoloTimeouts++
					} else {
						report.ParallelTimeouts++
					}
				}
			}
			solo, par := verdicts["solo"], verdicts["share+cubes"]
			if definitive(solo) && definitive(par) && solo != par {
				report.Mismatches++
			}
		}
	}
	return report
}

// RunSolverBench measures every personality on the repeated corpus in
// fresh mode (one solver instance per query, the pre-incremental
// architecture) and incremental mode (one warm smt.Context per
// personality), and cross-checks that the verdicts agree.
func RunSolverBench(cfg BenchConfig) BenchReport {
	cfg = cfg.withDefaults()
	g := gen.New(gen.Config{Seed: cfg.Seed, LinearTerms: 4, CoeffRange: 3})
	type query struct{ lhs, rhs *bv.Term }
	queries := make([]query, 0, cfg.Samples*cfg.Repeats)
	base := make([]query, 0, cfg.Samples)
	// Screen candidates with a bounded fresh solve: random linear MBA
	// occasionally lands on equations that need orders of magnitude more
	// search than their siblings, and one such sample would turn the
	// benchmark into a measurement of that sample alone. The screen is
	// conflict-budgeted, so the kept corpus is deterministic per seed.
	screen := smt.NewZ3Sim()
	for attempts := 0; len(base) < cfg.Samples && attempts < 20*cfg.Samples; attempts++ {
		s := g.Linear()
		lhs, rhs := s.Equation()
		ta, tb := bv.FromExpr(lhs, cfg.Width), bv.FromExpr(rhs, cfg.Width)
		if screen.CheckTermEquiv(ta, tb, smt.Budget{Conflicts: 10_000}).Status != smt.Equivalent {
			continue
		}
		base = append(base, query{ta, tb})
	}
	for r := 0; r < cfg.Repeats; r++ {
		queries = append(queries, base...)
	}
	budget := smt.Budget{Conflicts: cfg.Conflicts}

	report := BenchReport{Config: cfg, Speedup: map[string]float64{}}
	var totalFresh, totalInc time.Duration
	for _, s := range smt.All() {
		verdicts := make([]smt.Status, len(queries))

		fresh := BenchRun{Solver: s.Name(), Mode: "fresh", Queries: len(queries)}
		start := time.Now()
		for i, q := range queries {
			res := s.CheckTermEquiv(q.lhs, q.rhs, budget)
			verdicts[i] = res.Status
			benchCount(&fresh, res)
		}
		freshWall := time.Since(start)
		fresh.WallMS = durMSf(freshWall)

		ctx := s.NewContext()
		inc := BenchRun{Solver: s.Name(), Mode: "incremental", Queries: len(queries)}
		start = time.Now()
		for i, q := range queries {
			res := ctx.CheckTermEquiv(q.lhs, q.rhs, budget)
			if definitive(res.Status) && definitive(verdicts[i]) && res.Status != verdicts[i] {
				report.Mismatches++
			}
			benchCount(&inc, res)
		}
		incWall := time.Since(start)
		inc.WallMS = durMSf(incWall)

		st := ctx.Stats()
		inc.InternHits = st.Intern.Hits
		inc.ActHits = st.ActHits
		if lookups := st.Blast.CacheHits + st.Blast.CacheMisses; lookups > 0 {
			inc.BlastHitRate = float64(st.Blast.CacheHits) / float64(lookups)
		}
		if lookups := st.Blast.GateHits + st.Blast.GateMisses; lookups > 0 {
			inc.GateHitRate = float64(st.Blast.GateHits) / float64(lookups)
		}
		inc.CircuitVars = st.Vars
		inc.CircuitClause = st.Clauses

		report.Runs = append(report.Runs, fresh, inc)
		if incWall > 0 {
			report.Speedup[s.Name()] = freshWall.Seconds() / incWall.Seconds()
		}
		totalFresh += freshWall
		totalInc += incWall
	}
	if totalInc > 0 {
		report.Overall = totalFresh.Seconds() / totalInc.Seconds()
	}
	return report
}

func definitive(s smt.Status) bool { return s != smt.Timeout }

func benchCount(run *BenchRun, res smt.Result) {
	run.Conflicts += res.Conflicts
	switch res.Status {
	case smt.Equivalent:
		run.Solved++
	case smt.Timeout:
		run.Timeouts++
	}
}

func durMSf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteBenchJSON serializes the report as indented JSON.
func WriteBenchJSON(w io.Writer, r BenchReport) error { return writeJSONReport(w, r) }

// WriteClusterBenchJSON serializes the cluster report as indented JSON.
func WriteClusterBenchJSON(w io.Writer, r ClusterBenchReport) error { return writeJSONReport(w, r) }

func writeJSONReport(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encode bench report: %w", err)
	}
	return nil
}

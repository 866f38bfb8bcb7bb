package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/gen"
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

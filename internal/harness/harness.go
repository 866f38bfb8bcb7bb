// Package harness runs the paper's experiments end-to-end: it feeds
// corpus equations to the SMT solver personalities (§3, Table 2,
// Figures 3–4), repeats the runs after MBA-Solver simplification (§6.1,
// Table 6, Figure 6), compares against the peer tools (§6.2, Table 7)
// and profiles the simplifier itself (§6.3, Table 8). Each experiment
// renders a text table shaped like the paper's.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mbasolver/internal/core"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/metrics"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/smt"
)

// Config controls one experiment run.
type Config struct {
	// Width is the bitvector width handed to the solvers. The paper
	// uses 64-bit variables with a 1-hour timeout; the default here is
	// 8 bits with a conflict budget, which reproduces the same relative
	// shapes at laptop scale (see EXPERIMENTS.md).
	Width uint
	// Budget bounds each solver query.
	Budget smt.Budget
	// Parallelism is the worker count; default NumCPU.
	Parallelism int
	// Portfolio adds a fourth virtual solver column (portfolio.Name)
	// that races all personalities per query with first-verdict-wins
	// cancellation — the experimental analogue of the paper's virtual
	// best solver.
	Portfolio bool
	// Incremental solves through warm per-worker smt.Contexts instead
	// of a fresh solver per query: corpus samples share interned
	// structure, encoded circuits and learned clauses within each
	// worker. Verdicts are unchanged (see the differential tests in
	// internal/smt); per-query budgets still apply individually.
	Incremental bool
}

func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Budget.Conflicts == 0 && c.Budget.Timeout == 0 {
		c.Budget.Conflicts = 30000
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

// Outcome is one (sample, solver) query result.
type Outcome struct {
	Sample  gen.Sample
	Solver  string
	Status  smt.Status
	Elapsed time.Duration
	// Metrics of the expression the solver actually saw (the original
	// or the simplified obfuscated side).
	Metrics metrics.Metrics
}

// Solved reports whether the solver reached the correct verdict
// (corpus equations are identities, so "equivalent" is correct).
func (o Outcome) Solved() bool { return o.Status == smt.Equivalent }

// RunBaseline checks every corpus equation with every solver without
// simplification — the paper's §3 study.
func RunBaseline(samples []gen.Sample, solvers []*smt.Solver, cfg Config) []Outcome {
	cfg = cfg.withDefaults()
	return runQueries(samples, solvers, cfg, func(s gen.Sample) (*expr.Expr, *expr.Expr) {
		return s.Obfuscated, s.Ground
	})
}

// RunSimplified simplifies the obfuscated side with MBA-Solver first,
// then checks equivalence against the ground truth — the paper's §6.1
// experiment. A fresh Simplifier per call keeps the look-up table warm
// across samples, as the prototype does.
func RunSimplified(samples []gen.Sample, solvers []*smt.Solver, cfg Config) []Outcome {
	cfg = cfg.withDefaults()
	simplified := SimplifyAll(samples, cfg.Parallelism)
	return runQueries(samples, solvers, cfg, func(s gen.Sample) (*expr.Expr, *expr.Expr) {
		return simplified[s.ID], s.Ground
	})
}

// SimplifyAll runs MBA-Solver over the corpus concurrently and returns
// the simplified obfuscated sides keyed by sample ID. Samples whose
// obfuscated sides are structurally identical (equal canonical
// expr.Hash — generated corpora repeat rewrite products often) are
// simplified once: one representative per digest group runs through the
// simplifier and the result fans back to every member.
func SimplifyAll(samples []gen.Sample, parallelism int) map[int]*expr.Expr {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}

	type group struct {
		rep *expr.Expr // representative obfuscated side
		ids []int      // sample IDs sharing its canonical form
	}
	byDigest := make(map[expr.Digest]*group, len(samples))
	var order []*group // deterministic dispatch order
	for _, s := range samples {
		d := expr.Hash(s.Obfuscated)
		g, ok := byDigest[d]
		if !ok {
			g = &group{rep: s.Obfuscated}
			byDigest[d] = g
			order = append(order, g)
		}
		g.ids = append(g.ids, s.ID)
	}

	out := make(map[int]*expr.Expr, len(samples))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan *group)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			simp := core.Default() // Simplifier is not goroutine safe
			for g := range work {
				r := simp.Simplify(g.rep)
				mu.Lock()
				for _, id := range g.ids {
					out[id] = r
				}
				mu.Unlock()
			}
		}()
	}
	for _, g := range order {
		work <- g
	}
	close(work)
	wg.Wait()
	return out
}

// runQueries fans (sample × solver) queries over a worker pool. With
// cfg.Portfolio an extra virtual-solver query racing all personalities
// runs per sample. Each worker writes its Outcome to a pre-assigned
// slot of the result slice, so the returned order is deterministic
// across runs regardless of goroutine completion order (exported
// tables and CSVs must be byte-stable for identical inputs); the final
// sort then fixes the ordering contract to (sample ID, solver name).
func runQueries(samples []gen.Sample, solvers []*smt.Solver, cfg Config,
	sides func(gen.Sample) (*expr.Expr, *expr.Expr)) []Outcome {

	type job struct {
		slot      int
		sample    gen.Sample
		portfolio bool
		solver    *smt.Solver
	}
	perSample := len(solvers)
	if cfg.Portfolio {
		perSample++
	}
	popts := portfolio.Options{Incremental: cfg.Incremental}
	jobs := make(chan job)
	results := make([]Outcome, len(samples)*perSample)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one portfolio set and runs solo jobs on
			// its one-engine views, as the service's workers do; in
			// incremental mode it holds one warm context
			// (single-goroutine) per personality, reused across its jobs.
			set := portfolio.New(solvers, popts)
			for j := range jobs {
				lhs, rhs := sides(j.sample)
				o := Outcome{
					Sample:  j.sample,
					Metrics: metrics.Measure(lhs),
					Solver:  portfolio.Name,
				}
				run := set
				if !j.portfolio {
					run = set.Solo(j.solver.Name())
					o.Solver = j.solver.Name()
				}
				res := run.CheckEquiv(lhs, rhs, cfg.Width, cfg.Budget)
				o.Status = res.Status
				o.Elapsed = res.Elapsed
				results[j.slot] = o
			}
		}()
	}
	slot := 0
	for _, s := range samples {
		for _, sv := range solvers {
			jobs <- job{slot: slot, sample: s, solver: sv}
			slot++
		}
		if cfg.Portfolio {
			jobs <- job{slot: slot, sample: s, portfolio: true}
			slot++
		}
	}
	close(jobs)
	wg.Wait()
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Sample.ID != results[j].Sample.ID {
			return results[i].Sample.ID < results[j].Sample.ID
		}
		return results[i].Solver < results[j].Solver
	})
	return results
}

// categoryStats aggregates outcomes for one (kind, solver) cell of
// Table 2 / Table 6.
type categoryStats struct {
	N    int
	Min  time.Duration
	Max  time.Duration
	Sum  time.Duration
	Runs int
}

func (c *categoryStats) add(o Outcome) {
	c.Runs++
	if !o.Solved() {
		return
	}
	if c.N == 0 || o.Elapsed < c.Min {
		c.Min = o.Elapsed
	}
	if o.Elapsed > c.Max {
		c.Max = o.Elapsed
	}
	c.N++
	c.Sum += o.Elapsed
}

func (c *categoryStats) avg() time.Duration {
	if c.N == 0 {
		return 0
	}
	return c.Sum / time.Duration(c.N)
}

func sec(d time.Duration) float64 { return d.Seconds() }

// SolverTable renders a Table 2 / Table 6 style report: per MBA
// category and solver, the number solved and the min/max/average
// solving times.
func SolverTable(title string, outcomes []Outcome, solvers []string) string {
	kinds := []metrics.Kind{metrics.KindLinear, metrics.KindPoly, metrics.KindNonPoly}
	cells := map[metrics.Kind]map[string]*categoryStats{}
	for _, k := range kinds {
		cells[k] = map[string]*categoryStats{}
		for _, s := range solvers {
			cells[k][s] = &categoryStats{}
		}
	}
	perSolverTotal := map[string]int{}
	perSolverRuns := map[string]int{}
	for _, o := range outcomes {
		cells[o.Sample.Kind][o.Solver].add(o)
		perSolverRuns[o.Solver]++
		if o.Solved() {
			perSolverTotal[o.Solver]++
		}
	}

	var b tableBuilder
	b.titlef("%s", title)
	header := []string{"MBA Type"}
	for _, s := range solvers {
		header = append(header, s+" N", s+" [Tmin,Tmax]", s+" Tavg")
	}
	b.row(header...)
	for _, k := range kinds {
		row := []string{kindLabel(k)}
		for _, s := range solvers {
			c := cells[k][s]
			row = append(row,
				fmt.Sprintf("%d", c.N),
				fmt.Sprintf("[%.3f, %.3f]", sec(c.Min), sec(c.Max)),
				fmt.Sprintf("%.3f", sec(c.avg())),
			)
		}
		b.row(row...)
	}
	total := []string{"Total Solved"}
	for _, s := range solvers {
		runs := perSolverRuns[s]
		pct := 0.0
		if runs > 0 {
			pct = 100 * float64(perSolverTotal[s]) / float64(runs)
		}
		total = append(total, fmt.Sprintf("%d (%.1f%%)", perSolverTotal[s], pct), "", "")
	}
	b.row(total...)
	return b.String()
}

func kindLabel(k metrics.Kind) string {
	switch k {
	case metrics.KindLinear:
		return "Linear MBA"
	case metrics.KindPoly:
		return "Poly MBA"
	default:
		return "Non-poly MBA"
	}
}

package harness

import (
	"encoding/binary"
	"runtime"
	"sync"
	"time"

	"mbasolver/internal/core"
	"mbasolver/internal/expr"
	"mbasolver/internal/gen"
	"mbasolver/internal/metrics"
	"mbasolver/internal/peers/sspam"
	"mbasolver/internal/peers/syntia"
	"mbasolver/internal/smt"
)

// Tool is one simplifier under comparison in Table 7.
type Tool struct {
	Name string
	// New returns a per-worker instance (tools are not goroutine safe).
	New func() func(*expr.Expr) *expr.Expr
}

// DefaultTools returns the Table 7 lineup: SSPAM-sim, Syntia-sim and
// MBA-Solver.
func DefaultTools(width uint) []Tool {
	return []Tool{
		{
			Name: "SSPAM",
			New: func() func(*expr.Expr) *expr.Expr {
				s := sspam.NewWidth(width)
				return s.Simplify
			},
		},
		{
			Name: "Syntia",
			New: func() func(*expr.Expr) *expr.Expr {
				return func(e *expr.Expr) *expr.Expr {
					// Seed from the sample's canonical digest, so a
					// sample's synthesis does not depend on which
					// worker runs it or in what order.
					d := expr.Hash(e)
					seed := int64(binary.LittleEndian.Uint64(d[:8]))
					s := syntia.New(syntia.Config{Seed: seed, Width: width})
					return s.Synthesize(e).Expr
				}
			},
		},
		{
			Name: "MBA-Solver",
			New: func() func(*expr.Expr) *expr.Expr {
				s := core.New(core.Options{Width: 64})
				return s.Simplify
			},
		},
	}
}

// RunPeers runs each tool over the corpus, has every solver
// equivalence-check each tool's output against the ground truth, and
// aggregates the paper's Table 7 columns. The returned outcomes of the
// MBA-Solver tool under z3sim also feed Figure 6.
func RunPeers(samples []gen.Sample, tools []Tool, solvers []*smt.Solver, cfg Config) []PeerRow {
	cfg = cfg.withDefaults()
	rows := make([]PeerRow, 0, len(tools))
	for _, tool := range tools {
		rows = append(rows, runPeer(samples, tool, solvers, cfg))
	}
	return rows
}

func runPeer(samples []gen.Sample, tool Tool, solvers []*smt.Solver, cfg Config) PeerRow {
	type res struct {
		sample     gen.Sample
		simplified *expr.Expr
		verdict    map[string]smt.Result
	}
	results := make([]res, len(samples))

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			simplify := tool.New()
			for i := range idx {
				s := samples[i]
				simplified := simplify(s.Obfuscated)
				verdict := map[string]smt.Result{}
				for _, sv := range solvers {
					verdict[sv.Name()] = sv.CheckEquiv(simplified, s.Ground, cfg.Width, cfg.Budget)
				}
				results[i] = res{sample: s, simplified: simplified, verdict: verdict}
			}
		}()
	}
	for i := range samples {
		idx <- i
	}
	close(idx)
	wg.Wait()

	row := PeerRow{Tool: tool.Name, SolveAvg: map[string]time.Duration{}}
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	var altBefore, altAfter float64
	for _, r := range results {
		// A sample's verdict: wrong if any solver refutes it, correct
		// if at least one proves it, timeout otherwise (the corpus is
		// all identities, so a refutation is definitive).
		wrong, correct := false, false
		for _, v := range r.verdict {
			switch v.Status {
			case smt.NotEquivalent:
				wrong = true
			case smt.Equivalent:
				correct = true
			}
		}
		switch {
		case wrong:
			row.Wrong++
		case correct:
			row.Correct++
			altBefore += float64(metrics.Alternation(r.sample.Obfuscated))
			altAfter += float64(metrics.Alternation(r.simplified))
			for name, v := range r.verdict {
				if v.Status == smt.Equivalent {
					sums[name] += v.Elapsed
					counts[name]++
				}
			}
		default:
			row.Out++
		}
	}
	if row.Correct > 0 {
		row.AltBefore = altBefore / float64(row.Correct)
		row.AltAfter = altAfter / float64(row.Correct)
	}
	for name, sum := range sums {
		row.SolveAvg[name] = sum / time.Duration(counts[name])
	}
	return row
}

// ProfileSimplifier measures MBA-Solver's own time and memory across
// inputs bucketed by MBA alternation (paper Table 8). Buckets are the
// paper's 10/20/30/40 with a ±40% capture window.
func ProfileSimplifier(g *gen.Generator, perBucket int) []Table8Row {
	targets := []int{10, 20, 30, 40}
	buckets := map[int][]*expr.Expr{}
	// Draw non-poly samples (the richest alternation spread) until
	// each bucket is filled or the draw budget is exhausted.
	for draws := 0; draws < perBucket*400; draws++ {
		s := g.NonPoly()
		alt := metrics.Alternation(s.Obfuscated)
		for _, t := range targets {
			lo, hi := t-t*2/5, t+t*2/5
			if alt >= lo && alt <= hi && len(buckets[t]) < perBucket {
				buckets[t] = append(buckets[t], s.Obfuscated)
				break
			}
		}
		full := true
		for _, t := range targets {
			if len(buckets[t]) < perBucket {
				full = false
				break
			}
		}
		if full {
			break
		}
	}

	rows := make([]Table8Row, 0, len(targets))
	for _, t := range targets {
		inputs := buckets[t]
		if len(inputs) == 0 {
			rows = append(rows, Table8Row{Alternation: t})
			continue
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for _, e := range inputs {
			s := core.Default() // cold simplifier per input, like the paper's per-run cost
			s.Simplify(e)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		rows = append(rows, Table8Row{
			Alternation: t,
			Samples:     len(inputs),
			Time:        elapsed / time.Duration(len(inputs)),
			AllocBytes:  (after.TotalAlloc - before.TotalAlloc) / uint64(len(inputs)),
		})
	}
	return rows
}

// Command mbabench reruns the paper's experiments and prints each
// table and figure in the paper's shape.
//
// Usage:
//
//	mbabench [-exp all|table1|table2|figure3|figure4|table6|table7|figure6|table8]
//	         [-n 100] [-seed 1] [-width 8] [-conflicts 30000] [-timeout 0]
//	         [-corpus file] [-portfolio]
//
// -n is the per-category corpus size (the paper uses 1000; the default
// of 100 finishes in minutes on a laptop). -conflicts is the per-query
// CDCL budget standing in for the paper's 1-hour wall-clock timeout;
// -timeout adds a wall-clock bound per query (seconds, 0 = none).
// -portfolio adds a virtual solver column racing all three
// personalities per query with first-verdict-wins cancellation — the
// analogue of the paper's virtual best solver.
//
// -incremental runs the experiment queries through warm per-worker
// incremental solver contexts instead of a fresh solver per query
// (verdicts are identical; see internal/smt's differential tests). The
// default stays fresh so the tables reproduce the paper's
// query-isolated setup.
//
// -bench FILE switches to the incremental-vs-fresh solver benchmark:
// it runs every personality over a repeated corpus in both modes,
// writes the JSON report (scripts/bench.sh keeps it in
// BENCH_solver.json) to FILE ("-" = stdout) and exits. -repeats and
// -bench-samples size the workload; -seed and -width apply.
//
// -cluster-bench FILE switches to the sharded-cluster benchmark: it
// boots in-process mbaserved nodes behind an mbarouter ring at several
// node counts, drives one known-answer batch through each cluster cold
// and warm, verifies every definitive verdict against ground truth,
// and writes the JSON report (scripts/bench.sh keeps it in
// BENCH_cluster.json). -bench-samples, -repeats, -seed and -width
// size the workload.
//
// -eval-bench FILE switches to the evaluation-engine benchmark: the
// tree-walking interpreter against the flat bytecode program (scalar,
// bitsliced and auto engines) over a generated MBA corpus, with every
// bytecode output differentially checked against the interpreter. The
// JSON report goes to FILE (scripts/bench.sh keeps it in
// BENCH_eval.json). -bench-samples and -seed size the workload; the
// width defaults to 64 (the corpus the paper's evaluation targets)
// unless -width is given explicitly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mbasolver/internal/gen"
	"mbasolver/internal/harness"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/smt"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, figure3, figure4, table6, table7, figure6, table8, ablation")
	n := flag.Int("n", 100, "corpus samples per category")
	seed := flag.Int64("seed", 1, "corpus generator seed")
	width := flag.Uint("width", 8, "solver bitvector width")
	conflicts := flag.Int64("conflicts", 30000, "per-query CDCL conflict budget (the scaled-down 1-hour timeout)")
	timeout := flag.Float64("timeout", 0, "per-query wall-clock budget in seconds (0 = none)")
	corpusFile := flag.String("corpus", "", "load corpus from file instead of generating")
	csvOut := flag.String("csv", "", "also export raw per-query outcomes as CSV to this file")
	usePortfolio := flag.Bool("portfolio", false, "add a virtual solver column racing all personalities per query")
	incremental := flag.Bool("incremental", false, "solve through warm incremental contexts instead of a fresh solver per query")
	benchOut := flag.String("bench", "", "run the incremental-vs-fresh solver benchmark and write the JSON report to this file (- = stdout)")
	repeats := flag.Int("repeats", 4, "bench: round-robin passes over the corpus")
	benchSamples := flag.Int("bench-samples", 6, "bench: corpus equations")
	clusterOut := flag.String("cluster-bench", "", "run the sharded-cluster benchmark (in-process nodes behind a router at 1/2/3 nodes, cold vs warm shards) and write the JSON report to this file (- = stdout)")
	evalOut := flag.String("eval-bench", "", "run the evaluation-engine benchmark (tree interpreter vs bytecode engines) and write the JSON report to this file (- = stdout)")
	flag.Parse()

	if *evalOut != "" {
		// The eval bench defaults to width 64 — the full-ring corpus the
		// paper's evaluation targets — and to its own corpus size; the
		// -width and -bench-samples flags override only when set
		// explicitly (their global defaults suit the solver bench).
		evalCfg := harness.EvalBenchConfig{Seed: *seed, Width: 64}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "width":
				evalCfg.Width = *width
			case "bench-samples":
				evalCfg.Samples = *benchSamples
			}
		})
		step("benchmarking evaluation engines (width %d)...", evalCfg.Width)
		report := harness.RunEvalBench(evalCfg)
		out := os.Stdout
		if *evalOut != "-" {
			f, err := os.Create(*evalOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := harness.WriteEvalBenchJSON(out, report); err != nil {
			fatal(err)
		}
		for _, eng := range []string{"bytecode", "bitsliced", "auto"} {
			step("%s: %.1fx over the tree interpreter", eng, report.Speedup[eng])
		}
		step("%d evaluation mismatches", report.Mismatches)
		if report.Mismatches != 0 {
			fatal(fmt.Errorf("eval bench found %d mismatches against the interpreter", report.Mismatches))
		}
		return
	}

	if *clusterOut != "" {
		step("benchmarking the sharded cluster (%d equations + refuted variants, width %d)...",
			*benchSamples, *width)
		report, err := harness.RunClusterBench(harness.ClusterBenchConfig{
			Samples:     *benchSamples,
			Seed:        *seed,
			Width:       *width,
			WarmRepeats: *repeats,
		})
		if err != nil {
			fatal(err)
		}
		out := os.Stdout
		if *clusterOut != "-" {
			f, err := os.Create(*clusterOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := harness.WriteClusterBenchJSON(out, report); err != nil {
			fatal(err)
		}
		for _, n := range report.Config.NodeCounts {
			key := fmt.Sprintf("%d", n)
			step("%s node(s): cold scaling %.2fx, warm scaling %.2fx, cold/warm speedup %.2fx",
				key, report.ColdScaling[key], report.WarmScaling[key], report.ColdWarmSpeedup[key])
		}
		step("warm restart from the verdict store: %.2fx over a cold fill", report.RestartSpeedup)
		step("%d verdict mismatches", report.Mismatches)
		if report.Mismatches != 0 {
			fatal(fmt.Errorf("cluster bench found %d verdict mismatches", report.Mismatches))
		}
		return
	}

	if *benchOut != "" {
		step("benchmarking incremental vs fresh solving (%d equations x %d repeats, width %d)...",
			*benchSamples, *repeats, *width)
		report := harness.RunSolverBench(harness.BenchConfig{
			Samples: *benchSamples,
			Seed:    *seed,
			Width:   *width,
			Repeats: *repeats,
		})
		out := os.Stdout
		if *benchOut != "-" {
			f, err := os.Create(*benchOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := harness.WriteBenchJSON(out, report); err != nil {
			fatal(err)
		}
		step("overall speedup %.2fx, %d verdict mismatches", report.Overall, report.Mismatches)
		return
	}

	var samples []gen.Sample
	if *corpusFile != "" {
		f, err := os.Open(*corpusFile)
		if err != nil {
			fatal(err)
		}
		samples, err = gen.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		samples = gen.New(gen.Config{Seed: *seed}).Corpus(*n)
	}

	cfg := harness.Config{
		Width: *width,
		Budget: smt.Budget{
			Conflicts: *conflicts,
			Timeout:   time.Duration(*timeout * float64(time.Second)),
		},
		Portfolio:   *usePortfolio,
		Incremental: *incremental,
	}
	solvers := smt.All()
	names := make([]string, len(solvers))
	for i, s := range solvers {
		names[i] = s.Name()
	}
	if *usePortfolio {
		names = append(names, portfolio.Name)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		fmt.Println(harness.Table1(samples))
	}

	var baseline []harness.Outcome
	needBaseline := want("table2") || want("figure3") || want("figure4")
	if needBaseline {
		ran = true
		step("running baseline solvers on %d equations (width %d, %d conflicts)...",
			len(samples), *width, *conflicts)
		baseline = harness.RunBaseline(samples, solvers, cfg)
	}
	if want("table2") {
		fmt.Println(harness.SolverTable("Table 2: solvers on the raw MBA corpus", baseline, names))
	}
	if want("figure3") {
		fmt.Println(harness.Figure3(baseline))
		fmt.Println(harness.PlotFigure3(baseline))
	}
	if want("figure4") {
		fmt.Println(harness.Figure4(baseline, names))
		fmt.Println(harness.PlotFigure4(baseline, names))
	}
	if *csvOut != "" && baseline != nil {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteOutcomesCSV(f, baseline); err != nil {
			fatal(err)
		}
		f.Close()
		step("wrote raw outcomes to %s", *csvOut)
	}

	var simplified []harness.Outcome
	if want("table6") || want("figure6") {
		ran = true
		step("running solvers on MBA-Solver-simplified corpus...")
		simplified = harness.RunSimplified(samples, solvers, cfg)
	}
	if want("table6") {
		fmt.Println(harness.SolverTable("Table 6: solvers on MBA-Solver's simplification result", simplified, names))
	}
	if want("figure6") {
		fmt.Println(harness.Figure6(simplified))
		fmt.Println(harness.PlotFigure6(simplified))
	}

	if want("table7") {
		ran = true
		step("running peer-tool comparison (SSPAM, Syntia, MBA-Solver)...")
		rows := harness.RunPeers(samples, harness.DefaultTools(*width), solvers, cfg)
		fmt.Println(harness.Table7(rows, names))
	}

	if want("ablation") {
		ran = true
		step("running simplifier ablation...")
		fmt.Println(harness.AblationTable(harness.RunAblation(samples)))
	}

	if want("table8") {
		ran = true
		step("profiling MBA-Solver by input alternation...")
		rows := harness.ProfileSimplifier(gen.New(gen.Config{Seed: *seed + 7}), 20)
		fmt.Println(harness.Table8(rows))
	}

	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func step(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "== "+strings.TrimSpace(format)+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbabench:", err)
	os.Exit(1)
}

// Command mbasmt is a command-line SMT solver for the QF_BV subset of
// SMT-LIB v2 that MBA equations use, driven by one of the in-tree
// solver personalities.
//
// Usage:
//
//	mbasmt [-solver z3sim|stpsim|btorsim] [-portfolio] [-conflicts N]
//	       [-timeout SECONDS] [-simplify] [-json] [file.smt2]
//
// Reads the script from the file (or stdin), prints sat/unsat/unknown,
// and a model when the script asked for one. With -simplify, asserted
// disequalities between bitvector terms are first run through
// MBA-Solver — the paper's preprocessing pipeline as a solver flag.
// With -portfolio, all three personalities race on the query and the
// first definitive verdict wins (losers are cancelled); the winning
// engine is reported on stderr. With -json the result is emitted as a
// single JSON object using the shared mbaserved response schema
// (status, model, solver, per-engine stats) instead of the SMT-LIB
// text forms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/portfolio"
	"mbasolver/internal/service"
	"mbasolver/internal/smt"
	"mbasolver/internal/smtlib"
)

func main() {
	solverName := flag.String("solver", "btorsim", "personality: z3sim, stpsim or btorsim")
	usePortfolio := flag.Bool("portfolio", false, "race all personalities, first definitive verdict wins")
	conflicts := flag.Int64("conflicts", 0, "CDCL conflict budget (0 = unlimited)")
	timeout := flag.Float64("timeout", 0, "wall-clock budget in seconds (0 = unlimited)")
	simplify := flag.Bool("simplify", false, "run MBA-Solver preprocessing on asserted (dis)equalities")
	jsonOut := flag.Bool("json", false, "emit the result as JSON (mbaserved response schema)")
	flag.Parse()

	var solver *smt.Solver
	switch *solverName {
	case "z3sim":
		solver = smt.NewZ3Sim()
	case "stpsim":
		solver = smt.NewSTPSim()
	case "btorsim":
		solver = smt.NewBoolectorSim()
	default:
		fatal(fmt.Errorf("unknown solver %q", *solverName))
	}

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}

	script, err := smtlib.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	assertions := script.Assertions
	if *simplify {
		assertions = preprocess(assertions)
	}

	budget := smt.Budget{
		Conflicts: *conflicts,
		Timeout:   time.Duration(*timeout * float64(time.Second)),
	}
	var res smt.SatResult
	var engines []service.EngineStats
	answeredBy := *solverName
	if *usePortfolio {
		pres := portfolio.New(smt.All(), portfolio.Options{}).SolveAssertions(assertions, budget)
		res = pres.SatResult
		engines = service.EnginesOf(pres.Engines)
		answeredBy = pres.Winner
		if pres.Winner != "" {
			fmt.Fprintf(os.Stderr, "; portfolio winner: %s (%v", pres.Winner, res.Elapsed)
			for _, e := range pres.Engines {
				fmt.Fprintf(os.Stderr, "; %s=%s/%dc", e.Solver, e.Verdict, e.Conflicts)
			}
			fmt.Fprintln(os.Stderr, ")")
		}
	} else {
		res = solver.SolveAssertions(assertions, budget)
	}
	if *jsonOut {
		out := service.SatResponseOf(res, answeredBy)
		out.Engines = engines
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		if res.Status == smt.SatUnknown {
			os.Exit(2)
		}
		return
	}
	fmt.Println(res.Status)
	if res.Status == smt.Satisfiable && script.ProduceModels {
		fmt.Println("(model")
		names := make([]string, 0, len(res.Model))
		for n := range res.Model {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  (define-fun %s () (_ BitVec %d) (_ bv%d %d))\n",
				n, script.Decls[n], res.Model[n], script.Decls[n])
		}
		fmt.Println(")")
	}
	if res.Status == smt.SatUnknown {
		os.Exit(2)
	}
}

// preprocess applies the paper's MBA-Solver pass to each asserted
// equality or disequality whose sides convert back to MBA expressions.
func preprocess(assertions []*bv.Term) []*bv.Term {
	out := make([]*bv.Term, len(assertions))
	for i, a := range assertions {
		out[i] = smt.SimplifyPredicate(a)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbasmt:", err)
	os.Exit(1)
}

package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSolverBenchSmoke runs a miniature solver benchmark end to end —
// the same path scripts/bench.sh exercises with defaults — and checks
// the report's invariants: verdicts agree between modes, every
// (solver, mode) pair gets a run, and the incremental runs carry the
// reuse stats the JSON report exists to surface. Kept small enough for
// ci.sh (a few seconds), so it is not short-skipped.
func TestSolverBenchSmoke(t *testing.T) {
	cfg := BenchConfig{Samples: 2, Repeats: 2, Conflicts: 50_000}
	report := RunSolverBench(cfg)

	if report.Mismatches != 0 {
		t.Fatalf("incremental and fresh verdicts disagree on %d queries", report.Mismatches)
	}
	if len(report.Runs) == 0 || len(report.Runs)%2 != 0 {
		t.Fatalf("expected paired fresh/incremental runs, got %d", len(report.Runs))
	}
	for i := 0; i < len(report.Runs); i += 2 {
		fresh, inc := report.Runs[i], report.Runs[i+1]
		if fresh.Mode != "fresh" || inc.Mode != "incremental" || fresh.Solver != inc.Solver {
			t.Fatalf("run pair %d mislabeled: %+v / %+v", i/2, fresh, inc)
		}
		if fresh.Queries != inc.Queries || fresh.Queries == 0 {
			t.Fatalf("%s: query counts differ or zero: fresh %d inc %d",
				fresh.Solver, fresh.Queries, inc.Queries)
		}
		if inc.CircuitVars == 0 || inc.CircuitClause == 0 {
			t.Errorf("%s: incremental run missing circuit stats: %+v", inc.Solver, inc)
		}
	}
	if report.Overall <= 0 {
		t.Errorf("overall speedup not computed: %v", report.Overall)
	}
}

// TestSolverBenchCountersMatchCommitted reruns the solver benchmark at
// BENCH_solver.json's committed config and requires every
// deterministic counter of every fresh and incremental run to match
// the committed report exactly: a change that alters what the solvers
// search, encode or reuse must regenerate the file (scripts/bench.sh)
// and say so. Wall clock and the racy parallel section are not
// compared.
func TestSolverBenchCountersMatchCommitted(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_solver.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed BenchReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	got := RunSolverBench(committed.Config)
	if len(got.Runs) != len(committed.Runs) {
		t.Fatalf("%d runs, committed %d", len(got.Runs), len(committed.Runs))
	}
	for i, want := range committed.Runs {
		run := got.Runs[i]
		run.WallMS, want.WallMS = 0, 0
		if run != want {
			t.Errorf("run %d (%s %s) counters differ from BENCH_solver.json:\n got %+v\nwant %+v",
				i, want.Solver, want.Mode, run, want)
		}
	}
}

package harness

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"

	"mbasolver/internal/gen"
	"mbasolver/internal/metrics"
	"mbasolver/internal/smt"
)

// table6CountsPath pins the paper's headline, Table 6, at a small scale
// on counts that do not depend on the clock.
const table6CountsPath = "testdata/table6_counts.txt"

// table6Counts runs Table 6 (every personality on the MBA-Solver
// output) over a 50-per-class corpus at gen seed 1, width 8 and a
// 10,000-conflict budget, as
//
//	mbabench -exp table6 -n 50 -seed 1 -width 8 -conflicts 10000
//
// does, and renders the per-class solved count of each solver, one
// line each. The conflict budget is the only limit, so the counts are
// deterministic.
func table6Counts() string {
	samples := gen.New(gen.Config{Seed: 1}).Corpus(50)
	solvers := smt.All()
	outcomes := RunSimplified(samples, solvers, Config{Width: 8, Budget: smt.Budget{Conflicts: 10_000}})
	type cell struct {
		solver string
		kind   metrics.Kind
	}
	solved := map[cell]int{}
	for _, o := range outcomes {
		if o.Solved() {
			solved[cell{o.Solver, o.Sample.Kind}]++
		}
	}
	var b strings.Builder
	b.WriteString("# mbabench -exp table6 -n 50 -seed 1 -width 8 -conflicts 10000: solved of 50 per class\n")
	for _, s := range solvers {
		for _, k := range []metrics.Kind{metrics.KindLinear, metrics.KindPoly, metrics.KindNonPoly} {
			fmt.Fprintf(&b, "%s %s %d\n", s.Name(), k, solved[cell{s.Name(), k}])
		}
	}
	return b.String()
}

// TestTable6CountsMatchCommitted reruns the small Table 6 and requires
// its solved counts to match the committed file exactly: a change that
// alters what the simplifier hands the solvers, or what they decide
// within the budget, must re-pin the file and say so. With the file
// absent the test writes it and fails, so the new counts get reviewed.
func TestTable6CountsMatchCommitted(t *testing.T) {
	got := table6Counts()
	want, err := os.ReadFile(table6CountsPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(table6CountsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and rerun", table6CountsPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Table 6 counts differ from %s:\n got\n%s\nwant\n%s", table6CountsPath, got, want)
	}
}

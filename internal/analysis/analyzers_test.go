package analysis

import (
	"path/filepath"
	"testing"
)

// TestFixtures runs the full suite over each analyzer's testdata
// fixture and checks the diagnostics against the fixture's
// `// want "regexp"` comments — both directions: every diagnostic
// must be expected, and every expectation must fire.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		pkg      string
		minDiags int
	}{
		// The budgetloop fixture poses as a solver hot-path package so
		// the analyzer's scope rules apply to it.
		{dir: "budgetloop", pkg: "mbasolver/internal/sat", minDiags: 3},
		// The portfolio package is in the budgetloop scope: the loops
		// of its race must consult the budget like any solver hot path.
		{dir: "budgetportfolio", pkg: "mbasolver/internal/portfolio", minDiags: 2},
		{dir: "atomicmix", pkg: "example.com/atomicmix", minDiags: 4},
		{dir: "lockdiscipline", pkg: "example.com/lockfix", minDiags: 8},
		{dir: "exprimmut", pkg: "example.com/immut", minDiags: 4},
		{dir: "errwrap", pkg: "example.com/wrapfix", minDiags: 4},
		{dir: "recoverguard", pkg: "example.com/recoverguard", minDiags: 3},
		// The goroutinelife fixture poses as a module-internal package
		// outside every scoped analyzer's list: the lifetime contract is
		// whole-program.
		{dir: "goroutinelife", pkg: "mbasolver/internal/gorolife", minDiags: 3},
		// The ctxflow fixture poses as a service sub-package so the
		// request-path scope applies.
		{dir: "ctxflow", pkg: "mbasolver/internal/service/ctxfix", minDiags: 7},
		// The reasoncheck fixture's path contains internal/smt (verdict
		// scope) without suffix-matching the budgetloop scope.
		{dir: "reasoncheck", pkg: "mbasolver/internal/smtreason", minDiags: 5},
		// The storeput fixture's path contains internal/store, putting
		// Store-named Put receivers under the persistence rule: an
		// unguarded write to the on-disk store is a finding.
		{dir: "storeput", pkg: "mbasolver/internal/storeput", minDiags: 3},
		{dir: "clean", pkg: "example.com/clean", minDiags: 0},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			diags, errs := CheckExpectations(filepath.Join("testdata", "src", tc.dir), tc.pkg, Analyzers())
			for _, err := range errs {
				t.Error(err)
			}
			if len(diags) < tc.minDiags {
				t.Errorf("got %d diagnostics, want at least %d", len(diags), tc.minDiags)
			}
			if tc.dir == "clean" && len(diags) != 0 {
				t.Errorf("clean fixture produced %d diagnostics: %v", len(diags), diags)
			}
		})
	}
}

package sat

import (
	"sync/atomic"
	"testing"
)

// TestShareExportCaps checks that only clauses within the length and
// LBD caps reach the export hook, and that the stats agree.
func TestShareExportCaps(t *testing.T) {
	s := New(DefaultOptions())
	pigeonhole(s, 7, 6)
	var exported [][]Lit
	s.SetShareHooks(func(lits []Lit, lbd int) {
		if len(lits) > shareMaxLen {
			t.Errorf("exported clause of length %d exceeds cap %d", len(lits), shareMaxLen)
		}
		if lbd > shareMaxLBD {
			t.Errorf("exported clause with lbd %d exceeds cap %d", lbd, shareMaxLBD)
		}
		exported = append(exported, append([]Lit(nil), lits...))
	}, nil)
	if got := s.Solve(Budget{}); got != Unsat {
		t.Fatalf("PHP(7,6) = %v, want unsat", got)
	}
	if len(exported) == 0 {
		t.Fatal("no clauses exported from a conflict-heavy instance")
	}
	if s.Stats().Exported != int64(len(exported)) {
		t.Fatalf("Stats().Exported = %d, want %d", s.Stats().Exported, len(exported))
	}
}

// TestShareExportedClausesAreImplied verifies soundness of the export
// stream: every exported clause must be implied by the problem clauses
// alone (independent of any assumptions in effect), checked by brute
// force. The instance is pigeonhole PHP(4,3) whose last pigeon must
// have a hole only while a selector is assumed: unsat under the
// selector, so the search hits conflicts and exports learned clauses,
// and sat without it.
func TestShareExportedClausesAreImplied(t *testing.T) {
	const pigeons, holes = 4, 3
	const sel = pigeons * holes // the selector variable
	const nvars = sel + 1
	va := func(p, h int) Lit { return lit(p*holes+h, false) }
	var clauses [][]Lit
	for p := 0; p < pigeons; p++ {
		var cl []Lit
		for h := 0; h < holes; h++ {
			cl = append(cl, va(p, h))
		}
		if p == pigeons-1 {
			cl = append(cl, lit(sel, true))
		}
		clauses = append(clauses, cl)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []Lit{va(p1, h).Not(), va(p2, h).Not()})
			}
		}
	}
	s := newTestSolver(t, nvars)
	for _, cl := range clauses {
		s.AddClause(cl...)
	}
	var exported [][]Lit
	s.SetShareHooks(func(lits []Lit, lbd int) {
		exported = append(exported, append([]Lit(nil), lits...))
	}, nil)
	if got := s.Solve(Budget{}, lit(sel, false)); got != Unsat {
		t.Fatalf("under the selector: %v, want unsat", got)
	}
	if got := s.Solve(Budget{}, va(0, 0)); got != Sat {
		t.Fatalf("without the selector: %v, want sat", got)
	}
	if len(exported) == 0 {
		t.Fatal("no clause exported")
	}

	for _, cl := range exported {
		// F implies C iff F & ~C is unsat.
		neg := make([][]Lit, 0, len(cl))
		for _, l := range cl {
			neg = append(neg, []Lit{l.Not()})
		}
		if bruteForceSat(nvars, append(append([][]Lit{}, clauses...), neg...)) {
			t.Fatalf("exported clause %v is not implied by the problem clauses", cl)
		}
	}
	t.Logf("%d exported clauses checked", len(exported))
}

// TestShareImportRoundTrip solves one copy of an unsat instance,
// collects its exported clauses, and feeds them to a second copy via
// the import hook; the importer must stay sound (still Unsat) and must
// actually attach foreign clauses.
func TestShareImportRoundTrip(t *testing.T) {
	exporter := New(DefaultOptions())
	pigeonhole(exporter, 7, 6)
	var pool [][]Lit
	exporter.SetShareHooks(func(lits []Lit, lbd int) {
		pool = append(pool, append([]Lit(nil), lits...))
	}, nil)
	if got := exporter.Solve(Budget{}); got != Unsat {
		t.Fatalf("exporter PHP(7,6) = %v, want unsat", got)
	}
	if len(pool) == 0 {
		t.Fatal("exporter produced no clauses")
	}

	importer := New(DefaultOptions())
	pigeonhole(importer, 7, 6)
	next := 0
	importer.SetShareHooks(nil, func(max int) [][]Lit {
		if next >= len(pool) {
			return nil
		}
		end := next + max
		if end > len(pool) {
			end = len(pool)
		}
		batch := pool[next:end]
		next = end
		return batch
	})
	if got := importer.Solve(Budget{}); got != Unsat {
		t.Fatalf("importer PHP(7,6) = %v, want unsat", got)
	}
	if importer.Stats().Imported == 0 {
		t.Fatal("importer attached no foreign clauses")
	}
}

// TestShareImportSatPreserved: importing implied clauses into a
// satisfiable instance must not flip the verdict, and the model must
// still satisfy the original clauses.
func TestShareImportSatPreserved(t *testing.T) {
	exporter := New(DefaultOptions())
	pigeonhole(exporter, 9, 8)
	var pool [][]Lit
	exporter.SetShareHooks(func(lits []Lit, lbd int) {
		pool = append(pool, append([]Lit(nil), lits...))
	}, nil)
	exporter.Solve(Budget{Conflicts: 500})

	importer := New(DefaultOptions())
	pigeonhole(importer, 8, 8) // same variable space prefix, satisfiable
	served := false
	importer.SetShareHooks(nil, func(max int) [][]Lit {
		if served {
			return nil
		}
		served = true
		if len(pool) > max {
			return pool[:max]
		}
		return pool
	})
	// Clauses from PHP(9,8) over the shared 8x8 variable prefix are not
	// implied by PHP(8,8), so this import would be unsound in
	// production; here it only checks the plumbing (unknown variables
	// from pigeon 9 are dropped, attach stays consistent, the verdict
	// on this easy instance is still found by search).
	got := importer.Solve(Budget{})
	if got == Unknown {
		t.Fatalf("importer = %v, want a verdict", got)
	}
}

// TestShareImportRespectsStop: a raised stop flag must end the import
// loop before it attaches the batch.
func TestShareImportRespectsStop(t *testing.T) {
	s := newTestSolver(t, 4)
	s.AddClause(lit(0, false), lit(1, false))
	var stop atomic.Bool
	stop.Store(true)
	s.importFn = func(max int) [][]Lit {
		return [][]Lit{{lit(2, false)}, {lit(3, false)}}
	}
	s.importShared(Budget{Stop: &stop})
	if got := s.Stats().Imported; got != 0 {
		t.Fatalf("imported %d clauses under a raised stop flag, want 0", got)
	}
}

// TestShareImportUnknownVarDropped: clauses over variables the importer
// never allocated are skipped, not attached.
func TestShareImportUnknownVarDropped(t *testing.T) {
	s := newTestSolver(t, 2)
	s.AddClause(lit(0, false), lit(1, false))
	s.importFn = func(max int) [][]Lit {
		return [][]Lit{{lit(7, false), lit(0, true)}}
	}
	s.importShared(Budget{})
	if got := s.Stats().Imported; got != 0 {
		t.Fatalf("imported %d clauses mentioning unknown variables, want 0", got)
	}
	if !s.Okay() {
		t.Fatal("solver poisoned by a dropped clause")
	}
}

// TestShareImportUnitPropagates: a unit import is enqueued at level 0
// and propagates immediately; a contradictory pair refutes the solver.
func TestShareImportUnitPropagates(t *testing.T) {
	s := newTestSolver(t, 2)
	s.AddClause(lit(0, false), lit(1, false))
	s.importFn = func(max int) [][]Lit {
		return [][]Lit{{lit(0, true)}, {lit(0, false)}}
	}
	s.importShared(Budget{})
	if s.Okay() {
		t.Fatal("contradictory unit imports did not refute the solver")
	}
}

// TestShareProofIncompatible: enabling sharing with DRAT logging must
// panic — imported clauses are not derivable from the local formula.
func TestShareProofIncompatible(t *testing.T) {
	s := newTestSolver(t, 2)
	s.SetProofWriter(discardWriter{})
	defer func() {
		if recover() == nil {
			t.Fatal("SetShareHooks with proof logging did not panic")
		}
	}()
	s.SetShareHooks(func([]Lit, int) {}, nil)
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestTopVars: after a budgeted solve, TopVars returns distinct,
// activity-ranked, unfixed variables.
func TestTopVars(t *testing.T) {
	s := New(DefaultOptions())
	pigeonhole(s, 9, 8)
	s.Solve(Budget{Conflicts: 300})
	top := s.TopVars(5)
	if len(top) == 0 {
		t.Fatal("TopVars returned nothing after a conflict-heavy solve")
	}
	if len(top) > 5 {
		t.Fatalf("TopVars(5) returned %d variables", len(top))
	}
	seen := map[Var]bool{}
	for i, v := range top {
		if seen[v] {
			t.Fatalf("duplicate variable %v in TopVars", v)
		}
		seen[v] = true
		if i > 0 && s.activity[top[i-1]] < s.activity[v] {
			t.Fatalf("TopVars not sorted by activity: %v", top)
		}
	}
	if s.TopVars(0) != nil {
		t.Fatal("TopVars(0) should be nil")
	}
}

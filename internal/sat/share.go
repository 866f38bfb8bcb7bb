package sat

import "sort"

// Clause sharing. A portfolio of solvers working on (translations of)
// the same formula can exchange short learnt clauses: every learnt
// clause is derived by resolution from problem clauses alone —
// assumptions are decisions, and conflict analysis never resolves on a
// decision — so a learnt clause is implied by the clause database and
// sound to add to any solver whose database entails the same formula.
// The solver stays agnostic about transport and translation: it calls
// an export hook when it learns a clause worth sharing and an import
// hook at restart boundaries, and internal/bitblast supplies hooks
// that translate clauses between personalities' encodings.
//
// Imports happen only at restarts because that is the one point where
// the solver is about to return to decision level 0 anyway: attaching
// foreign clauses at level 0 needs no watch surgery against a partial
// trail, and the cost of the import is amortized against the restart's
// own backtrack.

// Sharing caps. Short, low-LBD ("glue") clauses are the ones worth the
// transport and translation cost; everything else stays local. The
// import cap keeps a noisy pool from starving the importer's own
// search.
const (
	shareMaxLen    = 8  // exported clause length in literals
	shareMaxLBD    = 3  // exported clause LBD/glue
	shareImportMax = 64 // clauses imported per restart
)

// SetShareHooks enables clause sharing. export is called with each
// learnt clause passing the caps (the slice is owned by the solver:
// hooks must copy, not retain). imp is called at restart boundaries
// and returns up to max foreign clauses over this solver's variables;
// clauses mentioning unallocated variables are skipped. Either hook
// may be nil to enable one direction only.
//
// Sharing is incompatible with DRAT proof logging: imported clauses
// are not derivable from the local formula, so enabling both panics.
func (s *Solver) SetShareHooks(export func(lits []Lit, lbd int), imp func(max int) [][]Lit) {
	if s.proof != nil {
		panic("sat: clause sharing is not supported with proof logging")
	}
	s.exportFn = export
	s.importFn = imp
}

// ClearShareHooks disables clause sharing.
func (s *Solver) ClearShareHooks() {
	s.exportFn = nil
	s.importFn = nil
}

// exportLearnt offers a freshly learnt clause to the export hook if it
// passes the sharing caps.
func (s *Solver) exportLearnt(lits []Lit, lbd int) {
	if s.exportFn == nil || len(lits) > shareMaxLen || lbd > shareMaxLBD {
		return
	}
	s.stats.Exported++
	s.exportFn(lits, lbd)
}

// importShared drains up to shareImportMax clauses from the import hook and
// attaches them. Must be called at decision level 0. The loop consults
// Budget.Stop between clauses: an import batch runs inside the search
// hot path and must not outlive a cancellation.
func (s *Solver) importShared(budget Budget) {
	batch := s.importFn(shareImportMax)
	for _, lits := range batch {
		if budget.Stop != nil && budget.Stop.Load() {
			return
		}
		if !s.okay {
			return
		}
		s.importClause(lits, budget.MaxLits)
	}
}

// importClause adds one foreign clause at decision level 0, with
// AddClause's normalization: satisfied clauses and tautologies are
// dropped, false literals removed. An empty residue makes the solver
// unsat (the clause is implied, so the formula is refuted); a unit is
// enqueued and propagated immediately so later clauses in the batch
// see the strengthened assignment.
func (s *Solver) importClause(lits []Lit, maxLits int64) {
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			return // unknown variable: encodings diverged, drop the clause
		}
	}
	out, keep := s.normalize(lits)
	if !keep {
		return // satisfied at level 0, or a tautology
	}
	switch len(out) {
	case 0:
		// Implied by the shared formula yet false at level 0: unsat.
		s.okay = false
		s.stats.Imported++
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		s.stats.Imported++
		if s.propagate() != noReason {
			s.okay = false
		}
	default:
		if maxLits > 0 && s.litsLive+int64(len(out)) > maxLits {
			return // at the database cap: skip rather than grow
		}
		// LBD cannot be recomputed here (the exporter's decision levels
		// are meaningless locally); clause length is a sound upper bound
		// and keeps short imports safe from reduceDB.
		c := s.alloc(out, true, len(out))
		s.litsLive += int64(len(out))
		s.learnts = append(s.learnts, c)
		s.attach(c)
		s.stats.Imported++
	}
}

// TopVars returns up to k distinct unfixed variables ranked by VSIDS
// activity, most active first (ties broken by index for determinism).
// Cube-and-conquer calls it after a screening run to pick the split
// variables the search found most contentious.
func (s *Solver) TopVars(k int) []Var {
	if k <= 0 {
		return nil
	}
	type cand struct {
		v   Var
		act float64
	}
	cands := make([]cand, 0, len(s.activity))
	for v := range s.activity {
		if s.varValue(Var(v)) != lUndef {
			continue // fixed at level 0 (callers invoke this between Solves)
		}
		cands = append(cands, cand{Var(v), s.activity[v]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].act != cands[j].act {
			return cands[i].act > cands[j].act
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Var, len(cands))
	for i, c := range cands {
		out[i] = c.v
	}
	return out
}

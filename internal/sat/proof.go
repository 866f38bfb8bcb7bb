package sat

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Proof logging: the solver can emit a DRAT-style proof (DIMACS literal
// syntax; "d" lines for deletions) of unsatisfiability. Every learnt
// clause is a RUP (reverse unit propagation) consequence of the
// formula, so the emitted trace is checkable by any DRAT checker; a
// small independent checker (CheckRUP) ships in this package for the
// test suite.
//
// Proof logging covers plain Solve calls; solving under assumptions
// derives assumption-relative lemmas that are not part of a refutation
// of the base formula, so SetProofWriter rejects that combination at
// Solve time.

// SetProofWriter enables DRAT proof output for subsequent solving.
// Pass nil to disable.
func (s *Solver) SetProofWriter(w io.Writer) {
	if w == nil {
		s.proof = nil
		return
	}
	s.proof = bufio.NewWriter(w)
}

func (s *Solver) proofAdd(lits []Lit) {
	if s.proof == nil {
		return
	}
	writeProofClause(s.proof, "", lits)
}

func (s *Solver) proofDelete(lits []Lit) {
	if s.proof == nil {
		return
	}
	writeProofClause(s.proof, "d ", lits)
}

func (s *Solver) proofFlush() {
	if s.proof != nil {
		s.proof.Flush()
	}
}

func writeProofClause(w *bufio.Writer, prefix string, lits []Lit) {
	w.WriteString(prefix)
	for _, l := range lits {
		v := int(l.Var()) + 1
		if l.Neg() {
			v = -v
		}
		fmt.Fprintf(w, "%d ", v)
	}
	w.WriteString("0\n")
}

// --- Independent RUP checker ---

// ErrProofInvalid reports a proof step that is not a RUP consequence.
var ErrProofInvalid = errors.New("sat: proof step is not a RUP consequence")

// CheckRUP verifies a DRAT/DRUP proof against the original clauses:
// every added clause must be derivable by reverse unit propagation
// from the current database, and the proof must end with (or contain)
// the empty clause. Deletions ("d" lines) are honored. The checker is
// deliberately independent of the solver (naive propagation, separate
// data structures) so that it can catch solver bugs.
func CheckRUP(original [][]Lit, proof io.Reader) error {
	db := make([][]Lit, 0, len(original))
	for _, c := range original {
		db = append(db, dedupLits(c))
	}

	sc := bufio.NewScanner(proof)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	sawEmpty := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		deletion := false
		if strings.HasPrefix(line, "d ") {
			deletion = true
			line = line[2:]
		}
		clause, err := parseProofClause(line)
		if err != nil {
			return err
		}
		if deletion {
			db = deleteClause(db, clause)
			continue
		}
		if !rupDerivable(db, clause) {
			return fmt.Errorf("%w: %v", ErrProofInvalid, clause)
		}
		if len(clause) == 0 {
			sawEmpty = true
			break
		}
		db = append(db, dedupLits(clause))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawEmpty {
		return errors.New("sat: proof does not derive the empty clause")
	}
	return nil
}

// dedupLits copies a clause with duplicate literals removed (original
// clauses may repeat a literal, which would break unit counting).
func dedupLits(c []Lit) []Lit {
	out := make([]Lit, 0, len(c))
	for _, l := range c {
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out
}

func parseProofClause(line string) ([]Lit, error) {
	fields := strings.Fields(line)
	clause := make([]Lit, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("sat: bad proof literal %q", f)
		}
		if v == 0 {
			return clause, nil
		}
		abs := v
		if abs < 0 {
			abs = -abs
		}
		clause = append(clause, MkLit(Var(abs-1), v < 0))
	}
	return nil, fmt.Errorf("sat: proof clause %q not 0-terminated", line)
}

func deleteClause(db [][]Lit, clause []Lit) [][]Lit {
	for i, c := range db {
		if sameClause(c, clause) {
			db[i] = db[len(db)-1]
			return db[:len(db)-1]
		}
	}
	return db // deleting an unknown clause is harmless
}

func sameClause(a, b []Lit) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[Lit]bool{}
	for _, l := range a {
		seen[l] = true
	}
	for _, l := range b {
		if !seen[l] {
			return false
		}
	}
	return true
}

// rupDerivable checks clause C by asserting ¬C and unit-propagating db
// to a conflict (naive two-pass propagation; checker-grade, not
// solver-grade performance).
func rupDerivable(db [][]Lit, clause []Lit) bool {
	assign := map[Lit]bool{} // literal -> asserted true
	assertLit := func(l Lit) bool {
		if assign[l.Not()] {
			return false // conflict
		}
		assign[l] = true
		return true
	}
	for _, l := range clause {
		if !assertLit(l.Not()) {
			return true // ¬C self-contradictory
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range db {
			var unit Lit = -1
			count := 0
			satisfied := false
			for _, l := range c {
				if assign[l] {
					satisfied = true
					break
				}
				if !assign[l.Not()] {
					unit = l
					count++
				}
			}
			if satisfied {
				continue
			}
			if count == 0 {
				return true // conflict reached
			}
			if count == 1 && !assign[unit] {
				if !assertLit(unit) {
					return true
				}
				changed = true
			}
		}
	}
	return false
}

// ProblemClauses returns copies of the solver's problem clauses for
// feeding CheckRUP alongside an emitted proof. While proof logging is
// enabled the clauses are returned exactly as given to AddClause
// (before normalization), because the emitted proof refutes the
// original formula; otherwise the normalized database plus level-0
// unit facts is returned.
func (s *Solver) ProblemClauses() [][]Lit {
	if s.proof != nil {
		out := make([][]Lit, len(s.origClauses))
		for i, c := range s.origClauses {
			out[i] = append([]Lit(nil), c...)
		}
		return out
	}
	out := make([][]Lit, 0, len(s.clauses)+len(s.trail))
	// Level-0 units do not live in the clause database; reconstruct
	// them from the bottom of the trail.
	limit := len(s.trail)
	if len(s.trailLim) > 0 {
		limit = int(s.trailLim[0])
	}
	for _, l := range s.trail[:limit] {
		if s.reason[l.Var()] == noReason {
			out = append(out, []Lit{l})
		}
	}
	for _, c := range s.clauses {
		out = append(out, append([]Lit(nil), s.lits(c)...))
	}
	return out
}

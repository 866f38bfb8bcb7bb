package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a CNF formula in DIMACS format into the solver,
// allocating variables 0..n-1 for DIMACS variables 1..n. Comment lines
// and the problem line are accepted in any position; literals may span
// lines. The function returns the number of variables declared.
func ParseDIMACS(s *Solver, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	declared := 0
	var clause []Lit
	ensure := func(v int) {
		for s.NumVars() < v {
			s.NewVar()
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return 0, fmt.Errorf("sat: malformed problem line %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return 0, fmt.Errorf("sat: bad variable count in %q", line)
			}
			declared = n
			ensure(n)
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return 0, fmt.Errorf("sat: bad literal %q", tok)
			}
			if v == 0 {
				if err := s.AddClause(clause...); err != nil {
					return 0, err
				}
				clause = clause[:0]
				continue
			}
			abs := v
			if abs < 0 {
				abs = -abs
			}
			ensure(abs)
			clause = append(clause, MkLit(Var(abs-1), v < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(clause) > 0 {
		if err := s.AddClause(clause...); err != nil {
			return 0, err
		}
	}
	return declared, nil
}

// WriteDIMACS writes the solver's problem clauses (not learnt clauses)
// in DIMACS format.
func WriteDIMACS(s *Solver, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(s.clauses))
	for _, c := range s.clauses {
		for _, l := range s.lits(c) {
			v := int(l.Var()) + 1
			if l.Neg() {
				v = -v
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, 0)
	}
	return bw.Flush()
}

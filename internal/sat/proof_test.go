package sat

import (
	"strings"
	"testing"
)

// solveWithProof runs the solver with proof logging and returns the
// original clauses (snapshotted before solving) and the proof text.
func solveWithProof(t *testing.T, build func(*Solver)) ([][]Lit, string, Status) {
	t.Helper()
	s := New(DefaultOptions())
	var proof strings.Builder
	s.SetProofWriter(&proof)
	build(s)
	original := s.ProblemClauses()
	status := s.Solve(Budget{})
	return original, proof.String(), status
}

func TestProofPigeonhole(t *testing.T) {
	for holes := 2; holes <= 4; holes++ {
		original, proof, status := solveWithProof(t, func(s *Solver) {
			pigeonhole(s, holes+1, holes)
		})
		if status != Unsat {
			t.Fatalf("PHP(%d,%d) = %v", holes+1, holes, status)
		}
		if err := CheckRUP(original, strings.NewReader(proof)); err != nil {
			t.Fatalf("PHP(%d,%d) proof rejected: %v", holes+1, holes, err)
		}
	}
}

func TestProofTrivialConflict(t *testing.T) {
	original, proof, status := solveWithProof(t, func(s *Solver) {
		v := s.NewVar()
		s.AddClause(MkLit(v, false))
		s.AddClause(MkLit(v, true))
	})
	if status != Unsat {
		t.Fatalf("status = %v", status)
	}
	if err := CheckRUP(original, strings.NewReader(proof)); err != nil {
		t.Fatalf("trivial proof rejected: %v", err)
	}
}

func TestProofRandomUnsat(t *testing.T) {
	// Dense random instances that turn out UNSAT must carry valid
	// proofs.
	checked := 0
	for seed := int64(0); seed < 40 && checked < 8; seed++ {
		s := New(DefaultOptions())
		var proof strings.Builder
		s.SetProofWriter(&proof)
		rng := newTestRng(seed)
		nvars := 6
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		for i := 0; i < 40; i++ {
			a := MkLit(Var(rng.Intn(nvars)), rng.Intn(2) == 1)
			b := MkLit(Var(rng.Intn(nvars)), rng.Intn(2) == 1)
			c := MkLit(Var(rng.Intn(nvars)), rng.Intn(2) == 1)
			if !s.okay {
				break
			}
			s.AddClause(a, b, c)
		}
		original := s.ProblemClauses()
		if !s.okay {
			continue
		}
		if s.Solve(Budget{}) != Unsat {
			continue
		}
		checked++
		if err := CheckRUP(original, strings.NewReader(proof.String())); err != nil {
			t.Fatalf("seed %d: proof rejected: %v\nproof:\n%s", seed, err, proof.String())
		}
	}
	if checked == 0 {
		t.Skip("no UNSAT instances drawn (adjust seed range)")
	}
}

func TestCheckRUPRejectsBogusProof(t *testing.T) {
	// x1 | x2 with a proof asserting the unrelated unit x1 (not RUP).
	original := [][]Lit{{MkLit(0, false), MkLit(1, false)}}
	err := CheckRUP(original, strings.NewReader("1 0\n0\n"))
	if err == nil {
		t.Fatal("bogus proof accepted")
	}
}

func TestCheckRUPRequiresEmptyClause(t *testing.T) {
	original := [][]Lit{{MkLit(0, false)}, {MkLit(0, true)}}
	// Valid steps but no empty clause.
	if err := CheckRUP(original, strings.NewReader("")); err == nil {
		t.Fatal("proof without empty clause accepted")
	}
}

func TestProofWithAssumptionsPanics(t *testing.T) {
	s := New(DefaultOptions())
	var sb strings.Builder
	s.SetProofWriter(&sb)
	v := s.NewVar()
	s.AddClause(MkLit(v, false))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for proof logging with assumptions")
		}
	}()
	s.Solve(Budget{}, MkLit(v, true))
}

// newTestRng avoids importing math/rand at top level twice.
func newTestRng(seed int64) *testRng { return &testRng{state: uint64(seed)*2685821657736338717 + 1} }

type testRng struct{ state uint64 }

func (r *testRng) Intn(n int) int {
	// xorshift64*
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return int((r.state * 2685821657736338717 >> 33) % uint64(n))
}

package sat

import "testing"

// BenchmarkSolve builds and solves one fixed hard CNF per iteration:
// the pinned 200-variable random 3-SAT instance at clause ratio 4.2,
// which is unsatisfiable and takes about 8.5k conflicts.
func BenchmarkSolve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(DefaultOptions())
		random3SAT(s, 11, 200, 840)
		if got := s.Solve(Budget{}); got != Unsat {
			b.Fatalf("Solve = %v, want unsat", got)
		}
	}
}

package smt

import (
	"reflect"
	"testing"

	"mbasolver/internal/bv"
	"mbasolver/internal/parser"
)

// drainBlasters empties the Blaster pool, so the next fresh query
// builds a new Blaster.
func drainBlasters() {
	for blasters.Get() != nil {
	}
}

// TestPooledQueriesMatchFresh interleaves the three personalities'
// queries through the shared Blaster pool, so every query after the
// first runs on a Blaster another personality used last, and checks
// each result against the same query on a new Blaster: verdict for
// verdict, witness for witness and count for count.
func TestPooledQueriesMatchFresh(t *testing.T) {
	pairs := [][2]string{
		{"x|y", "(x&~y)+y"},                           // identity
		{"x*y+x", "(x|y)*(x&y)+(x&~y)*(~x&y)+(x&~y)"}, // differs when x&y != 0
		{"x*y", "(x&~y)*(~x&y)+(x&y)*(x|y)"},          // Figure 1: budget-bound
		{"x^y", "(x|y)-(x&y)"},                        // identity
		{"(x^y)*z", "(x|y)*z-(x&y)*z+1"},              // never equal
	}
	budget := Budget{Conflicts: 150, NoScreen: true}
	type query struct {
		s      *Solver
		ta, tb *bv.Term
	}
	var queries []query
	for _, p := range pairs {
		for _, s := range All() {
			ta := bv.FromExpr(parser.MustParse(p[0]), 8)
			tb := bv.FromExpr(parser.MustParse(p[1]), 8)
			queries = append(queries, query{s, ta, tb})
		}
	}
	run := func(q query, fresh bool) Result {
		if fresh {
			drainBlasters()
		}
		res := q.s.CheckTermEquiv(q.ta, q.tb, budget)
		res.Elapsed = 0
		return res
	}
	var pooled []Result
	for _, q := range queries {
		pooled = append(pooled, run(q, false))
	}
	verdicts := map[Status]int{}
	for i, q := range queries {
		want := run(q, true)
		if want.Conflicts > 0 {
			verdicts[want.Status]++
		}
		if !reflect.DeepEqual(pooled[i], want) {
			t.Errorf("%s, query %d: pooled result differs from a new Blaster's\n got %+v\nwant %+v",
				q.s.Name(), i, pooled[i], want)
		}
	}
	if len(verdicts) != 3 {
		t.Fatalf("the SAT search decided %v; want every verdict kind represented", verdicts)
	}
}

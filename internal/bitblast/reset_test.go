package bitblast

import (
	"reflect"
	"sync/atomic"
	"testing"

	"mbasolver/internal/bv"
	"mbasolver/internal/parser"
	"mbasolver/internal/sat"
)

// geometricOptions is the stpsim personality's SAT option set.
func geometricOptions() sat.Options {
	opts := sat.DefaultOptions()
	opts.VarDecay = 0.91
	opts.RestartLuby = false
	opts.RestartBase = 150
	opts.RestartInc = 1.5
	return opts
}

// resetQuery is a disequality a != b at width 8.
type resetQuery struct {
	name string
	a, b string
	want sat.Status // under a 300-conflict budget
}

var resetQueries = []resetQuery{
	// Differs exactly when x&y is nonzero: Sat after some search.
	{"sat", "x*y+x", "(x|y)*(x&y)+(x&~y)*(~x&y)+(x&~y)", sat.Sat},
	// A linear MBA identity: Unsat.
	{"unsat", "(x^y)+2*(x&y)", "x+y", sat.Unsat},
	// The paper's Figure-1 identity: Unknown within the budget.
	{"unknown", "x*y", "(x&~y)*(~x&y)+(x&y)*(x|y)", sat.Unknown},
}

func (q resetQuery) terms() (a, b *bv.Term) {
	return bv.FromExpr(parser.MustParse(q.a), 8), bv.FromExpr(parser.MustParse(q.b), 8)
}

// resetOutcome is everything a caller observes from one query.
type resetOutcome struct {
	status  sat.Status
	sat     sat.Stats
	blast   Stats
	vars    int
	clauses int
	witness map[string]uint64
}

func solveDiseq(t *testing.T, b *Blaster, q resetQuery) resetOutcome {
	t.Helper()
	ta, tb := q.terms()
	query := bv.Predicate(bv.Ne, ta, tb)
	out := b.Blast(query)
	if out == nil {
		t.Fatalf("%s: Blast aborted", q.name)
	}
	b.AssertTrue(out[0])
	st := b.Solve(sat.Budget{Conflicts: 300})
	o := resetOutcome{
		status:  st,
		sat:     b.S.Stats(),
		blast:   b.Stats(),
		vars:    b.S.NumVars(),
		clauses: b.S.NumClauses(),
	}
	if st == sat.Sat {
		o.witness = map[string]uint64{}
		for name := range bv.Vars(query) {
			v, ok := b.Model(name)
			if !ok {
				t.Fatalf("%s: no model for %s", q.name, name)
			}
			o.witness[name] = v
		}
		if bv.Eval(ta, o.witness) == bv.Eval(tb, o.witness) {
			t.Fatalf("%s: witness %v does not distinguish the sides", q.name, o.witness)
		}
	}
	return o
}

// TestResetEqualsFresh dirties one Blaster in each way a pooled
// Blaster can come back, Resets it and checks that it then answers
// every query exactly like a new Blaster: same verdict, same search
// and encoding counters, same circuit size and same witness.
func TestResetEqualsFresh(t *testing.T) {
	dirty := []struct {
		name string
		run  func(t *testing.T) *Blaster
	}{
		{"after-sat", func(t *testing.T) *Blaster {
			b := New(sat.DefaultOptions())
			solveDiseq(t, b, resetQueries[0])
			return b
		}},
		{"after-maxvars-abort", func(t *testing.T) *Blaster {
			b := New(sat.DefaultOptions())
			b.SetMaxVars(40)
			ta, tb := resetQueries[2].terms()
			if out := b.Blast(bv.Predicate(bv.Ne, ta, tb)); out != nil || b.StopReason() != sat.ReasonResource {
				t.Fatalf("Blast under a 40-variable cap was not aborted for resources")
			}
			return b
		}},
		{"after-shared-stopped-solve", func(t *testing.T) *Blaster {
			var stop atomic.Bool
			p := NewPool(2)
			b := New(sat.DefaultOptions())
			b.SetStop(&stop)
			b.EnableShare(p.Endpoint(0))
			ta, tb := resetQueries[2].terms()
			out := b.Blast(bv.Predicate(bv.Ne, ta, tb))
			b.AssertTrue(out[0])
			b.Solve(sat.Budget{Conflicts: 200})
			stop.Store(true)
			if st := b.Solve(sat.Budget{}); st != sat.Unknown {
				t.Fatalf("Solve under a raised stop = %v, want unknown", st)
			}
			return b
		}},
		{"after-other-personality", func(t *testing.T) *Blaster {
			b := New(geometricOptions())
			solveDiseq(t, b, resetQueries[2])
			return b
		}},
	}
	for _, d := range dirty {
		for _, opts := range []sat.Options{sat.DefaultOptions(), geometricOptions()} {
			for _, q := range resetQueries {
				b := d.run(t)
				b.Reset(opts)
				got := solveDiseq(t, b, q)
				want := solveDiseq(t, New(opts), q)
				if want.status != q.want {
					t.Fatalf("%s: new Blaster answered %v, want %v", q.name, want.status, q.want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, RestartLuby=%v, %s: reset Blaster differs from a new one\n got %+v\nwant %+v",
						d.name, opts.RestartLuby, q.name, got, want)
				}
			}
		}
	}
}

package sat

import (
	"strings"
	"testing"
)

// The search is pinned: for fixed instances and options, every
// decision, propagation, conflict, restart, learnt and removed clause
// is part of the solver's observable contract, because the benchmark's
// deterministic counts and the committed BENCH_solver counters are
// derived from them. A refactor of the clause store or the scratch
// buffers must leave these numbers exactly where they are; a change
// that moves them is a search change and must re-pin them on purpose.

// stpsimOptions mirrors the geometric-restart option set of the STP-like
// personality in internal/smt.
func stpsimOptions() Options {
	opts := DefaultOptions()
	opts.VarDecay = 0.91
	opts.RestartLuby = false
	opts.RestartBase = 150
	opts.RestartInc = 1.5
	return opts
}

// random3SAT loads a fixed-seed random 3-SAT instance with the given
// variable and clause counts.
func random3SAT(s *Solver, seed int64, nvars, nclauses int) {
	rng := newTestRng(seed)
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	for i := 0; i < nclauses; i++ {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(Var(rng.Intn(nvars)), rng.Intn(2) == 1)
		}
		s.AddClause(cl...)
	}
}

// pinnedRun is one instance's verdicts (one letter per Solve call:
// s, u or ?) and the solver's final Stats.
type pinnedRun struct {
	verdicts string
	stats    Stats
}

func runPinned(opts Options, instance string) (pinnedRun, *Solver) {
	var out strings.Builder
	record := func(st Status) {
		switch st {
		case Sat:
			out.WriteByte('s')
		case Unsat:
			out.WriteByte('u')
		default:
			out.WriteByte('?')
		}
	}
	var s *Solver
	switch instance {
	case "random3sat":
		// 200 variables at clause ratio 4.2, next to the hardness
		// threshold of about 4.26.
		s = New(opts)
		random3SAT(s, 11, 200, 840)
		record(s.Solve(Budget{}))
	case "php7-6":
		s = New(opts)
		pigeonhole(s, 7, 6)
		record(s.Solve(Budget{}))
	case "budgeted":
		s = New(opts)
		pigeonhole(s, 9, 8)
		record(s.Solve(Budget{Conflicts: 700}))
	case "assumptions":
		// A long-lived solver: repeated budgeted solves under random
		// assumption cubes, with a learnt database capped low enough
		// that reduceDB runs many times.
		opts.LearntsFraction = 0.05
		s = New(opts)
		random3SAT(s, 23, 250, 1000)
		rng := newTestRng(99)
		for round := 0; round < 40; round++ {
			cube := make([]Lit, 6)
			for j := range cube {
				cube[j] = MkLit(Var(rng.Intn(250)), rng.Intn(2) == 1)
			}
			record(s.Solve(Budget{Conflicts: 400}, cube...))
		}
	}
	return pinnedRun{out.String(), s.Stats()}, s
}

func TestSearchCountsPinned(t *testing.T) {
	want := map[string]pinnedRun{
		"default/random3sat":  {"u", Stats{Decisions: 10268, Propagations: 332771, Conflicts: 8546, Restarts: 35, Learnt: 8533, Removed: 7502, MaxLBD: 19}},
		"default/php7-6":      {"u", Stats{Decisions: 994, Propagations: 10550, Conflicts: 806, Restarts: 5, Learnt: 799, Removed: 648, MaxLBD: 15}},
		"default/budgeted":    {"?", Stats{Decisions: 992, Propagations: 10137, Conflicts: 700, Restarts: 5, Learnt: 700, Removed: 526, MaxLBD: 28}},
		"default/assumptions": {"?????s???ss????????s?????????s???s??????", Stats{Decisions: 19824, Propagations: 694182, Conflicts: 14998, Restarts: 77, Learnt: 14998, Removed: 14798, MaxLBD: 23}},
		"stpsim/random3sat":   {"u", Stats{Decisions: 10234, Propagations: 332984, Conflicts: 8725, Restarts: 8, Learnt: 8716, Removed: 7434, MaxLBD: 19}},
		"stpsim/php7-6":       {"u", Stats{Decisions: 1187, Propagations: 13142, Conflicts: 965, Restarts: 3, Learnt: 960, Removed: 836, MaxLBD: 18}},
		"stpsim/budgeted":     {"?", Stats{Decisions: 952, Propagations: 10854, Conflicts: 700, Restarts: 2, Learnt: 700, Removed: 591, MaxLBD: 31}},
		"stpsim/assumptions":  {"???????s???????????sss???sss?????s??ss??", Stats{Decisions: 17281, Propagations: 605015, Conflicts: 13170, Restarts: 65, Learnt: 13170, Removed: 13025, MaxLBD: 22}},
	}
	for _, personality := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"stpsim", stpsimOptions()}} {
		for _, instance := range []string{"random3sat", "php7-6", "budgeted", "assumptions"} {
			key := personality.name + "/" + instance
			got, s := runPinned(personality.opts, instance)
			w, ok := want[key]
			if !ok {
				t.Errorf("%s: no pinned value; got %#v", key, got)
				continue
			}
			if got != w {
				t.Errorf("%s: search moved\n got %#v\nwant %#v", key, got, w)
			}
			if instance == "assumptions" && s.compactions == 0 {
				t.Errorf("%s: reduceDB never compacted the arena", key)
			}
		}
	}
}

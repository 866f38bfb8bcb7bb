package main

import (
	"sort"
	"time"

	"mbasolver/internal/bitblast"
	"mbasolver/internal/bv"
	"mbasolver/internal/eval/bitslice"
	"mbasolver/internal/sat"
	"mbasolver/internal/smt"
)

// personality mirrors one smt personality's preprocessing level, SAT
// options and conflict-budget scaling. smt keeps these unexported, so
// the replay carries its own copy; if smt's internals drift from it,
// trace.fidelity drops instead of the benchmark breaking.
type personality struct {
	level bv.RewriteLevel
	opts  sat.Options
	speed float64
}

func personalities() map[string]personality {
	z3 := sat.DefaultOptions()
	z3.VarDecay, z3.RestartLuby, z3.RestartBase = 0.95, true, 100
	stp := sat.DefaultOptions()
	stp.VarDecay, stp.RestartLuby, stp.RestartBase, stp.RestartInc = 0.91, false, 150, 1.5
	btor := sat.DefaultOptions()
	btor.VarDecay, btor.RestartLuby, btor.RestartBase = 0.95, true, 100
	return map[string]personality{
		"z3sim":   {bv.RewriteBasic, z3, 1.0},
		"stpsim":  {bv.RewriteBasic, stp, 1.25},
		"btorsim": {bv.RewriteFull, btor, 4.0},
	}
}

func (p personality) conflicts(budget int64) int64 {
	if budget <= 0 || p.speed == 1.0 {
		return budget
	}
	return int64(float64(budget) * p.speed)
}

// layerTimes is one query replayed layer by layer.
type layerTimes struct {
	screen, rewrite, blast, solve time.Duration
	vars, clauses                 int
	blasted                       bool
	status                        smt.Status
	conflicts, propagations       int64
}

// replayQuery re-runs one equivalence query through the public entry
// points of the layers smt.Solver.CheckTermEquiv calls, in the order
// it calls them: the bitslice screen, the bv rewriter, the bit-blaster
// and the CDCL solver. real is the verdict of the real call; the
// replay stops where the real call stopped (a screened verdict needs
// only the screen, a rewritten one the rewriter, whose arithmetic
// normalisation is not public and stays unattributed).
func replayQuery(ta, tb *bv.Term, p personality, conflicts int64, real smt.Result) layerTimes {
	var lt layerTimes
	t0 := time.Now()
	screenReplay(ta, tb)
	lt.screen = time.Since(t0)
	if real.Screened {
		return lt
	}

	t0 = time.Now()
	rw := bv.NewRewriter(p.level)
	a, b := ta, tb
	if p.level != bv.RewriteNone {
		a, b = rw.Rewrite(ta), rw.Rewrite(tb)
	}
	query := rw.Rewrite(bv.Predicate(bv.Ne, a, b))
	lt.rewrite = time.Since(t0)
	if real.Rewritten || query.Op == bv.Const {
		return lt
	}

	t0 = time.Now()
	bl := bitblast.New(p.opts)
	out := bl.Blast(query)
	bl.AssertTrue(out[0])
	lt.blast = time.Since(t0)
	lt.blasted = true
	lt.vars, lt.clauses = bl.S.NumVars(), bl.S.NumClauses()

	t0 = time.Now()
	verdict := bl.Solve(sat.Budget{Conflicts: p.conflicts(conflicts)})
	lt.solve = time.Since(t0)
	st := bl.S.Stats()
	lt.conflicts, lt.propagations = st.Conflicts, st.Propagations
	switch verdict {
	case sat.Unsat:
		lt.status = smt.Equivalent
	case sat.Sat:
		lt.status = smt.NotEquivalent
	default:
		lt.status = smt.Timeout
	}
	return lt
}

// screenReplay repeats the pre-solve screen's work: compile the
// disequality to bitslice bytecode and evaluate the corner block and
// four pseudo-random 64-lane blocks, stopping at the first block in
// which some lane differs.
func screenReplay(ta, tb *bv.Term) {
	prog, err := bitslice.CompileTerm(bv.Predicate(bv.Ne, ta, tb))
	if err != nil {
		return
	}
	vars := map[string]bool{}
	for name := range bv.Vars(ta) {
		vars[name] = true
	}
	for name := range bv.Vars(tb) {
		vars[name] = true
	}
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)

	ev := bitslice.NewEvaluator(prog)
	width := ta.Width
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	differs := func(blk *bitslice.Block) bool {
		for _, d := range ev.EvalBlock(blk, nil) {
			if d != 0 {
				return true
			}
		}
		return false
	}
	corners := []uint64{0, mask, 1, 0xaaaaaaaaaaaaaaaa & mask, 0x5555555555555555 & mask, mask >> 1, (mask >> 1) + 1}
	blk := bitslice.NewBlock(width, 64)
	nc := len(corners)
	for lane := 0; lane < 64; lane++ {
		for vi, name := range names {
			blk.Set(name, lane, corners[(lane+vi*(1+lane/nc))%nc])
		}
	}
	if differs(blk) {
		return
	}
	state := uint64(0x9e3779b97f4a7c15)
	for b := 0; b < 4; b++ {
		blk := bitslice.NewBlock(width, 64)
		for lane := 0; lane < 64; lane++ {
			for _, name := range names {
				blk.Set(name, lane, splitmix(&state))
			}
		}
		if differs(blk) {
			return
		}
	}
}

// splitmix steps a splitmix64 stream.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// replayTotals sums replays for the per-layer report.
type replayTotals struct {
	screen, rewrite, blast, solve time.Duration
	vars, clauses, blasted        int
	satBound, faithful            int
	props                         int64
}

func (rt *replayTotals) add(lt layerTimes, real smt.Result) {
	rt.screen += lt.screen
	rt.rewrite += lt.rewrite
	rt.blast += lt.blast
	rt.solve += lt.solve
	if lt.blasted {
		rt.blasted++
		rt.vars += lt.vars
		rt.clauses += lt.clauses
		rt.props += lt.propagations
	}
	if !real.Screened && !real.Rewritten {
		rt.satBound++
		if lt.blasted && lt.status == real.Status && lt.conflicts == real.Conflicts {
			rt.faithful++
		}
	}
}

// fill writes the replay-derived metrics, per op over ops ops, into m.
func (rt *replayTotals) fill(m map[string]float64, ops int) {
	per := func(d time.Duration) float64 { return ms(d) / float64(max(ops, 1)) }
	m["bitslice.screen_ms"] = per(rt.screen)
	m["bv.rewrite_ms"] = per(rt.rewrite)
	m["bitblast.blast_ms"] = per(rt.blast)
	m["sat.solve_ms"] = per(rt.solve)
	m["bitblast.vars"] = ratio(rt.vars, rt.blasted)
	m["bitblast.clauses"] = ratio(rt.clauses, rt.blasted)
	m["trace.fidelity"] = ratio(rt.faithful, rt.satBound)
	if rt.solve > 0 {
		m["sat.props_per_ms"] = float64(rt.props) / ms(rt.solve)
	} else {
		m["sat.props_per_ms"] = 0
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

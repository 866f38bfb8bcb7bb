package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"mbasolver/internal/bv"
	"mbasolver/internal/core"
	"mbasolver/internal/expr"
	"mbasolver/internal/metrics"
	"mbasolver/internal/smt"
)

// Library workload parameters. Width 8 and 100 conflicts keep a raw
// query near 10 ms, so a run holds a couple of thousand of them; the
// budget is a conflict count, never a wall clock, so every op does the
// same work on every run.
const (
	libWidth     = 8
	libConflicts = 100
	rawBlocks    = 6  // 594 queries, one pass in about 8 s
	simpBlocks   = 18 // 1782 queries
	rawWarmOps   = 40 // raw warm-up prefix, about half a second
)

// libOp is one (equation, personality) query.
type libOp struct {
	obf, ground *expr.Expr
	solver      *smt.Solver
}

// libOutcome is the counted pass's record of one op.
type libOutcome struct {
	done  bool
	res   smt.Result
	lhs   *expr.Expr // the side handed to the solver (simplified or not)
	stats core.Stats // simplifier work done by this op
}

// libDone is one op's output, kept until verify checks it.
type libDone struct {
	i   int
	res smt.Result
	lhs *expr.Expr
}

type libInst struct {
	simplified bool
	ops        []libOp
	simp       *core.Simplifier
	cursor     int // next op index, cycling
	pass       []libOutcome
	passLeft   int     // ops of the counted pass still to run
	rss        float64 // peak RSS when the counted pass completed
	opID       int64
	done       []libDone // outputs not yet verified
}

// setupLibrary builds the raw or simplified workload: a generated
// corpus, each equation paired with one personality in rotation, in a
// seed-shuffled order; then the warm-up.
func setupLibrary(simplified bool) func(cfg config) (instance, error) {
	return func(cfg config) (instance, error) {
		blocks := rawBlocks
		if simplified {
			blocks = simpBlocks
		}
		if cfg.small {
			blocks = 1
		}
		solvers := smt.All()
		var ops []libOp
		for _, eq := range stratifiedCorpus(cfg.seed, blocks) {
			ops = append(ops, libOp{obf: eq.obf, ground: eq.ground, solver: solvers[eq.pers]})
		}

		l := &libInst{
			simplified: simplified,
			ops:        ops,
			simp:       core.New(core.Options{Width: libWidth}),
			pass:       make([]libOutcome, len(ops)),
			passLeft:   len(ops),
		}
		// The simplified warm-up runs the first block, which also fills
		// the simplifier's signature look-up table.
		warm := min(rawWarmOps, len(ops))
		if simplified {
			warm = min(blockSize, len(ops))
		}
		for i := 0; i < warm; i++ {
			l.step(nil, false)
		}
		if failed := l.verify(); failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d ops failed their known-answer checks", failed, warm)
		}
		l.simp.ResetStats()
		return l, nil
	}
}

// do runs op i: simplify the obfuscated side (simplified workload
// only), build the bitvector terms and check the equivalence.
func (l *libInst) do(i int, tr *tracer) (smt.Result, *expr.Expr) {
	op := l.ops[i]
	id := l.opID
	root := tr.begin("op", id, -1)
	lhs := op.obf
	if l.simplified {
		sp := tr.begin("core.simplify", id, root)
		lhs = l.simp.Simplify(lhs)
		tr.end(sp)
	}
	ta, tb := bv.FromExpr(lhs, libWidth), bv.FromExpr(op.ground, libWidth)
	sp := tr.begin("smt.check", id, root)
	res := op.solver.CheckTermEquiv(ta, tb, smt.Budget{Conflicts: libConflicts})
	tr.end(sp)
	tr.end(root)
	return res, lhs
}

func (l *libInst) run(deadline time.Time, tr *tracer) window {
	var w window
	for l.passLeft > 0 || time.Now().Before(deadline) {
		w.lat = append(w.lat, l.step(tr, true))
	}
	return w
}

// step runs the next op, keeps its output for verify and, if record is
// set and the op is not yet in the counted pass, records it there. It
// returns the op's latency.
func (l *libInst) step(tr *tracer, record bool) time.Duration {
	i := l.cursor % len(l.ops)
	l.cursor++
	before := l.simp.Stats()
	start := time.Now()
	res, lhs := l.do(i, tr)
	lat := time.Since(start)
	l.opID++
	l.done = append(l.done, libDone{i: i, res: res, lhs: lhs})
	if out := &l.pass[i]; record && !out.done {
		*out = libOutcome{done: true, res: res, lhs: lhs, stats: statsDelta(before, l.simp.Stats())}
		l.passLeft--
		if l.passLeft == 0 {
			l.rss = peakRSSMB()
		}
	}
	return lat
}

// verify checks every op output kept since the last call: the verdict
// on an identity, and a simplifier output against its input on the
// fixed block under the tree interpreter, at the solver width it is
// sound for.
func (l *libInst) verify() int {
	failed := 0
	for _, d := range l.done {
		if !identityOK(d.res.Status, d.res.Reason.String()) ||
			l.simplified && !agree(l.ops[d.i].obf, d.lhs, libWidth) {
			failed++
		}
	}
	l.done = l.done[:0]
	return failed
}

func (l *libInst) passRSS() float64 { return l.rss }

func (l *libInst) undecidedFrac() float64 {
	ps := l.summary()
	return ratio(ps.n-ps.decided, ps.n)
}

func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		Signatures:   b.Signatures - a.Signatures,
		TableHits:    b.TableHits - a.TableHits,
		TableMisses:  b.TableMisses - a.TableMisses,
		Abstractions: b.Abstractions - a.Abstractions,
		CSEHits:      b.CSEHits - a.CSEHits,
		Iterations:   b.Iterations - a.Iterations,
		Bailouts:     b.Bailouts - a.Bailouts,
	}
}

// passSummary aggregates the counted pass. fingerprint hashes every
// op's verdict, conflicts, propagations, deciding layer and solver
// input, so two runs can be compared exactly.
type passSummary struct {
	n, decided, equivalent, screened, rewritten, satBound, alt int
	conflicts, props                                           int64
	core                                                       core.Stats
	fingerprint                                                uint64
}

func (l *libInst) summary() passSummary {
	h := fnv.New64a()
	ps := passSummary{n: len(l.pass)}
	for i, out := range l.pass {
		r := out.res
		if r.Status != smt.Timeout {
			ps.decided++
		}
		if r.Status == smt.Equivalent {
			ps.equivalent++
		}
		switch {
		case r.Screened:
			ps.screened++
		case r.Rewritten:
			ps.rewritten++
		default:
			ps.satBound++
		}
		ps.conflicts += r.Conflicts
		ps.props += r.Propagations
		ps.core = addStats(ps.core, out.stats)
		lhs := ""
		if l.simplified {
			lhs = out.lhs.String()
			ps.alt += metrics.Alternation(out.lhs)
		}
		fmt.Fprintf(h, "%d|%d|%d|%d|%t|%t|%s\n", i, r.Status, r.Conflicts, r.Propagations, r.Screened, r.Rewritten, lhs)
	}
	ps.fingerprint = h.Sum64()
	return ps
}

func (l *libInst) counts() map[string]any {
	ps := l.summary()
	c := map[string]any{
		"ops":          ps.n,
		"decided":      ps.decided,
		"equivalent":   ps.equivalent,
		"decided_frac": ratio(ps.decided, ps.n),
		"screened":     ps.screened,
		"rewritten":    ps.rewritten,
		"sat_bound":    ps.satBound,
		"conflicts":    ps.conflicts,
		"propagations": ps.props,
		"fingerprint":  fmt.Sprintf("%016x", ps.fingerprint),
	}
	if l.simplified {
		c["core"] = ps.core
		c["alternation_out"] = ps.alt
	}
	return c
}

func addStats(a, b core.Stats) core.Stats {
	a.Signatures += b.Signatures
	a.TableHits += b.TableHits
	a.TableMisses += b.TableMisses
	a.Abstractions += b.Abstractions
	a.CSEHits += b.CSEHits
	a.Iterations += b.Iterations
	a.Bailouts += b.Bailouts
	return a
}

// layers reports the per-layer split: core and smt self times from
// the traced window's spans, the layers below smt from replaying each
// op of the counted pass once, and the counted pass's counts.
func (l *libInst) layers(tr *tracer, traced window) map[string]float64 {
	m := zeroLayers()
	self := tr.selfTimes()
	tops := float64(max(len(traced.lat), 1))
	m["core.simplify_ms"] = ms(self["core.simplify"]) / tops
	m["smt.check_ms"] = ms(self["smt.check"]) / tops

	pers := personalities()
	var rt replayTotals
	for i, out := range l.pass {
		op := l.ops[i]
		ta, tb := bv.FromExpr(out.lhs, libWidth), bv.FromExpr(op.ground, libWidth)
		start := time.Now()
		lt := replayQuery(ta, tb, pers[op.solver.Name()], libConflicts, out.res)
		tr.add("replay", int64(i), time.Since(start))
		rt.add(lt, out.res)
	}
	ps := l.summary()
	n := float64(max(ps.n, 1))
	rt.fill(m, ps.n)
	m["smt.unattributed_ms"] = m["smt.check_ms"] - (m["bitslice.screen_ms"] + m["bv.rewrite_ms"] + m["bitblast.blast_ms"] + m["sat.solve_ms"])
	m["smt.screened_frac"] = ratio(ps.screened, ps.n)
	m["smt.rewritten_frac"] = ratio(ps.rewritten, ps.n)
	m["smt.sat_frac"] = ratio(ps.satBound, ps.n)
	m["smt.decided_frac"] = ratio(ps.decided, ps.n)
	m["sat.conflicts"] = float64(ps.conflicts) / n
	m["sat.propagations"] = float64(ps.props) / n
	m["core.table_hit_frac"] = ratio(ps.core.TableHits, ps.core.TableHits+ps.core.TableMisses)
	m["core.signatures_per_op"] = ratio(ps.core.Signatures, ps.n)
	m["core.alternation_out"] = ratio(ps.alt, ps.n)
	return m
}

// zeroLayers starts a per-layer report with every metric at zero: a
// layer the workload never calls reports 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = 0
	}
	return m
}

func (l *libInst) close() {}

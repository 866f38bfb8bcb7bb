package smt

import (
	"sync"
	"sync/atomic"
	"time"

	"mbasolver/internal/bitblast"
	"mbasolver/internal/bv"
	"mbasolver/internal/fault"
	"mbasolver/internal/sat"
)

// Fault-injection site (no-op unless a chaos plan arms it): smt.cube
// panics inside a cube worker; the worker's own containment must
// degrade that cube to Unknown(ReasonPanic) without losing the other
// cubes' verdicts.
var siteCube = fault.NewSite("smt.cube")

// CubeOptions tunes cube-and-conquer (CheckTermEquivCube). Zero
// fields take defaults.
type CubeOptions struct {
	// Vars is the number k of split variables; the query is split into
	// 2^k cubes. Default 3 (8 cubes).
	Vars int
	// ScreenConflicts is the conflict budget of the screening solve
	// (before personality speed scaling). Queries decided within it
	// never pay for cubing. Default 2000.
	ScreenConflicts int64
	// Workers bounds concurrent cube workers. Default 2. Values above
	// the cube count are clamped.
	Workers int
	// ShareCapacity, when positive, enables raw clause sharing among
	// the cube workers: all workers blast the same residual query with
	// the same deterministic encoding, so learnt clauses (which are
	// implied by the clause database alone, never by the cube
	// assumptions) transfer verbatim, Tseitin gate clauses included.
	ShareCapacity int
}

const (
	defaultCubeVars            = 3
	defaultCubeScreenConflicts = 2000
)

// WithDefaults returns a copy with zero fields replaced by their
// defaults, so callers staging work around a cube phase (e.g. the
// portfolio's screen race) can see the effective settings.
func (o CubeOptions) WithDefaults() CubeOptions {
	if o.Vars <= 0 {
		o.Vars = defaultCubeVars
	}
	if o.Vars > 10 {
		o.Vars = 10 // 1024 cubes; beyond this splitting is pure overhead
	}
	if o.ScreenConflicts <= 0 {
		o.ScreenConflicts = defaultCubeScreenConflicts
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	return o
}

// CheckTermEquivCube decides ta == tb by cube-and-conquer: the query
// runs the common word-level pipeline, then a short screening solve
// filters out easy queries (and harvests VSIDS activities), then the
// query is split on the top-k most active variables into 2^k cubes
// raced by workers under one shared budget. The first satisfying cube
// wins (NotEquivalent with a model-backed witness); if every cube is
// refuted the conjunction of verdicts is Equivalent; anything else
// merges to a reasoned Unknown, with ReasonBudget dominating (one
// exhausted cube means more budget could still decide the query,
// whereas resource/panic degradations are structural).
//
// Like CheckTermEquiv it is a solver boundary: panics below degrade
// to Unknown(ReasonPanic). Each cube worker additionally contains its
// own panics so one poisoned cube cannot take down the others.
func (s *Solver) CheckTermEquivCube(ta, tb *bv.Term, budget Budget, opts CubeOptions) (res Result) {
	q := s.newQuery(budget)
	defer contain("smt.CheckTermEquivCube", q.start, nil, &res)
	res, _ = s.checkTerms(q, ta, tb, nil, nil, cubes{opts: opts.WithDefaults()})
	return res
}

// cubes is the cube-and-conquer back end. Its screening solve is the
// fresh back end's search under a clamped conflict budget, and
// satisfiability queries run fresh.
type cubes struct {
	fresh
	opts CubeOptions
}

func (cb cubes) decide(q query) (Result, bool) {
	// Screening solve: cheap conflict budget, full sharing with any
	// cross-personality pool the caller wired in. Its blaster doubles
	// as the reference encoding the split variables are drawn from.
	screenConflicts := cb.opts.ScreenConflicts
	if q.budget.Conflicts > 0 && q.budget.Conflicts < screenConflicts {
		screenConflicts = q.budget.Conflicts
	}
	res, screen, ok := q.solveFresh(screenConflicts)
	// Only a conflict-budget expiry earns the cube phase: an external
	// stop or deadline means the whole query is out of time, and a
	// resource/panic degradation would only repeat 2^k times.
	if !ok || res.Status != Unknown || res.Reason != ReasonBudget || q.budget.stopped() ||
		(!q.deadline.IsZero() && !time.Now().Before(q.deadline)) {
		releaseBlaster(screen)
		return res, ok
	}
	splitVars := screen.S.TopVars(cb.opts.Vars)
	releaseBlaster(screen)
	if len(splitVars) == 0 {
		return res, true
	}
	return q.conquer(res, splitVars, cb.opts), true
}

// conquer races the 2^k cubes over splitVars and merges their
// verdicts into res, the screening solve's Unknown.
func (q *query) conquer(res Result, splitVars []sat.Var, opts CubeOptions) Result {
	// Enumerate the 2^k cubes over the split variables. Workers blast
	// the same residual query term with the same options, so variable
	// numbering is identical across workers and the screen — the cube
	// literals are valid everywhere.
	ncubes := 1 << len(splitVars)
	all := make([][]sat.Lit, ncubes)
	for i := range all {
		cube := make([]sat.Lit, len(splitVars))
		for j, v := range splitVars {
			cube[j] = sat.MkLit(v, i>>j&1 == 1)
		}
		all[i] = cube
	}

	nw := opts.Workers
	if nw > ncubes {
		nw = ncubes
	}

	// localStop fans the external budget into the workers and lets the
	// first satisfying cube cancel the rest; a watcher mirrors the
	// caller's stop flag in so external cancellation still lands
	// within milliseconds.
	var localStop atomic.Bool
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	if q.budget.Stop != nil {
		go func() {
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-watcherDone:
					return
				case <-tick.C:
					if q.budget.Stop.Load() {
						localStop.Store(true)
						return
					}
				}
			}
		}()
	}

	var pool *rawCubePool
	if opts.ShareCapacity > 0 {
		pool = newRawCubePool(nw, opts.ShareCapacity)
	}

	type cubeOutcome struct {
		status  sat.Status
		reason  Reason
		witness map[string]uint64
	}
	work := make(chan []sat.Lit)
	results := make(chan cubeOutcome, ncubes)
	var conflicts, props atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(widx int) {
			defer wg.Done()
			// One blaster per worker, reused across its cubes: learnt
			// clauses and phases accumulated on one cube carry to the
			// next (cube-dependent learnts embed the cube literals, so
			// they are sound across cubes).
			report := func(o cubeOutcome) { results <- o }
			bl, ok := func() (b *bitblast.Blaster, ok bool) {
				defer func() {
					if r := recover(); r != nil {
						fault.RecordPanic("smt.cube", r)
						ok = false
					}
				}()
				b = acquireBlaster(q.s.satOpts)
				q.arm(b, &localStop)
				o := b.Blast(q.residual)
				if o == nil {
					releaseBlaster(b)
					return nil, false
				}
				b.AssertTrue(o[0])
				if pool != nil {
					b.S.SetShareHooks(pool.export(widx), pool.drain(widx, &localStop))
				}
				return b, true
			}()
			if !ok {
				// Encoding failed (cancelled or a contained panic): every
				// cube this worker would have run degrades.
				for range work {
					report(cubeOutcome{status: sat.Unknown, reason: ReasonBudget})
				}
				return
			}
			before := bl.S.Stats()
			panicked := false
			for cube := range work {
				if localStop.Load() {
					report(cubeOutcome{status: sat.Unknown, reason: ReasonBudget})
					continue
				}
				o := func() (o cubeOutcome) {
					defer func() {
						if r := recover(); r != nil {
							fault.RecordPanic("smt.cube", r)
							o = cubeOutcome{status: sat.Unknown, reason: ReasonPanic}
							panicked = true
						}
					}()
					if siteCube.Fire() {
						fault.PanicAt("smt.cube")
					}
					v := bl.Solve(q.satBudget(q.budget.Conflicts, &localStop), cube...)
					o = cubeOutcome{status: v}
					switch v {
					case sat.Sat:
						// First SAT wins: extract the witness while this
						// worker still owns the model, then cancel the rest.
						var tmp Result
						q.verdict(&tmp, v, bl)
						o.witness = tmp.Witness
						localStop.Store(true)
					case sat.Unknown:
						o.reason = bl.UnknownReason()
					}
					return o
				}()
				report(o)
			}
			after := bl.S.Stats()
			conflicts.Add(after.Conflicts - before.Conflicts)
			props.Add(after.Propagations - before.Propagations)
			if !panicked {
				releaseBlaster(bl)
			}
		}(w)
	}

	for _, cube := range all {
		work <- cube
	}
	close(work)
	wg.Wait()
	close(results)

	res.Conflicts += conflicts.Load()
	res.Propagations += props.Load()
	res.Elapsed = time.Since(q.start)

	allUnsat := true
	mergedReason := ReasonNone
	for o := range results {
		switch o.status {
		case sat.Sat:
			res.Status = NotEquivalent
			res.Witness = o.witness
			res.Reason = ReasonNone
			return res
		case sat.Unsat:
			// A refuted cube contributes to the conjunction.
		default:
			allUnsat = false
			// Unknown-merge per the degradation rules: ReasonBudget
			// dominates (more budget could still decide the query);
			// otherwise keep the first structural reason seen.
			if o.reason == ReasonBudget || mergedReason == ReasonNone {
				mergedReason = o.reason
			}
		}
	}
	if allUnsat {
		res.Status = Equivalent
		res.Reason = ReasonNone
		return res
	}
	res.Status = Unknown
	res.Reason = mergedReason
	if q.budget.stopped() {
		res.Reason = ReasonBudget
	}
	return res
}

// rawCubePool shares learnt clauses between cube workers without
// translation: every worker's encoding is literal-for-literal
// identical (same residual query term, same deterministic blast), so
// clauses transfer verbatim. Publishing never blocks; full channels
// drop. The exporter's clause slice is owned (and later mutated) by
// its solver, so export copies before sending.
type rawCubePool struct {
	chans []chan []sat.Lit
}

func newRawCubePool(n, capacity int) *rawCubePool {
	p := &rawCubePool{chans: make([]chan []sat.Lit, n)}
	for i := range p.chans {
		p.chans[i] = make(chan []sat.Lit, capacity)
	}
	return p
}

func (p *rawCubePool) export(from int) func([]sat.Lit, int) {
	return func(lits []sat.Lit, lbd int) {
		cp := append([]sat.Lit(nil), lits...)
		for i := range p.chans {
			if i == from {
				continue
			}
			select {
			case p.chans[i] <- cp:
			default:
			}
		}
	}
}

func (p *rawCubePool) drain(to int, stop *atomic.Bool) func(int) [][]sat.Lit {
	return func(max int) [][]sat.Lit {
		var out [][]sat.Lit
		for len(out) < max {
			if stop != nil && stop.Load() {
				return out
			}
			select {
			case c := <-p.chans[to]:
				out = append(out, c)
			default:
				return out
			}
		}
		return out
	}
}

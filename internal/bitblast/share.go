// Clause sharing between blasters. Each portfolio personality blasts
// the same bitvector query into its own CNF, so clause indices mean
// nothing across solvers — but the bits of named input variables do:
// every encoding allocates literals for variable bits through VarBits.
// A learnt clause whose literals are all input-variable bits (plus at
// most the exporting query's activation guard) is therefore a fact
// about the query itself, not about one encoding, and can be replayed
// in any other personality by looking the bits up in its own variable
// map. Clauses mentioning Tseitin gate literals are local artifacts
// and are dropped at export time; the sat package's short-clause caps
// make the surviving stream cheap to translate.
package bitblast

import (
	"sync/atomic"

	"mbasolver/internal/fault"
	"mbasolver/internal/sat"
)

// Fault-injection site (no-op unless a chaos plan arms it):
// bitblast.share panics inside the share import hook, which runs in
// the middle of the SAT search loop — the solver boundary in
// internal/smt must contain it and degrade to Unknown(ReasonPanic).
var siteShare = fault.NewSite("bitblast.share")

// SharedLit is one literal of a translated clause: a bit of a named
// input variable, or the exporting query's activation guard (Act).
type SharedLit struct {
	Name string
	Bit  int
	Neg  bool
	Act  bool // the exporter's activation guard slot (always negated)
}

// SharedClause is a translated learnt clause stamped with the pool
// generation it was learnt under; stale generations are discarded at
// import (a clause learnt for query N says nothing about query N+1).
type SharedClause struct {
	Gen  uint64
	Lits []SharedLit
}

// Pool carries translated clauses between n cooperating solvers over
// bounded lock-free channels: publishing never blocks (a full peer
// channel drops the clause), importing drains whatever has arrived.
// A Pool is safe for concurrent use by its members; bumping the
// generation with NextQuery must not race with members mid-solve.
type Pool struct {
	chans []chan SharedClause
	gen   atomic.Uint64

	published atomic.Int64 // clause deliveries enqueued to peers
	dropped   atomic.Int64 // deliveries dropped on full channels
	delivered atomic.Int64 // clauses handed to importers
	stale     atomic.Int64 // clauses discarded for a stale generation
}

// PoolStats is a snapshot of the pool's traffic counters.
type PoolStats struct {
	Published int64
	Dropped   int64
	Delivered int64
	Stale     int64
}

// poolCapacity is each member's channel capacity in clauses, not
// literals. It trades sharing completeness against memory; 256 is
// plenty for three personalities.
const poolCapacity = 256

// NewPool returns a pool for n members.
func NewPool(n int) *Pool {
	p := &Pool{chans: make([]chan SharedClause, n)}
	for i := range p.chans {
		p.chans[i] = make(chan SharedClause, poolCapacity)
	}
	return p
}

// Endpoint returns member i's handle on the pool.
func (p *Pool) Endpoint(i int) *Endpoint {
	return &Endpoint{pool: p, idx: i}
}

// NextQuery advances the pool generation, invalidating all clauses
// still in flight. Persistent pools (a portfolio.Set's) call it at
// each query boundary; single-query pools never need to.
func (p *Pool) NextQuery() { p.gen.Add(1) }

// Stats returns a snapshot of the traffic counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Published: p.published.Load(),
		Dropped:   p.dropped.Load(),
		Delivered: p.delivered.Load(),
		Stale:     p.stale.Load(),
	}
}

// Endpoint is one member's view of a Pool.
type Endpoint struct {
	pool *Pool
	idx  int
}

// publish offers a clause to every other member, never blocking.
func (e *Endpoint) publish(c SharedClause) {
	p := e.pool
	for i := range p.chans {
		if i == e.idx {
			continue
		}
		select {
		case p.chans[i] <- c:
			p.published.Add(1)
		default:
			p.dropped.Add(1)
		}
	}
}

// drain returns up to max current-generation clauses addressed to this
// member, discarding stale ones. It never blocks: an empty channel
// ends the batch. The loop consults stop because it runs inside the
// importer's search hot path.
func (e *Endpoint) drain(max int, stop *atomic.Bool) []SharedClause {
	p := e.pool
	gen := p.gen.Load()
	var out []SharedClause
	for len(out) < max {
		if stop != nil && stop.Load() {
			return out
		}
		select {
		case c := <-p.chans[e.idx]:
			if c.Gen != gen {
				p.stale.Add(1)
				continue
			}
			p.delivered.Add(1)
			out = append(out, c)
		default:
			return out
		}
	}
	return out
}

// varBit records which input-variable bit a solver variable encodes.
type varBit struct {
	name string
	bit  int
}

// EnableShare connects the blaster to a sharing pool: learnt clauses
// passing the caps are translated and published, and foreign clauses
// are translated back and imported at the SAT solver's restart
// boundaries. Call SetShareAct first when the query is asserted under
// an activation literal (incremental contexts) so exported clauses
// carry the guard slot and imported ones are re-guarded locally.
func (b *Blaster) EnableShare(ep *Endpoint) {
	b.share = ep
	b.S.SetShareHooks(b.exportShared, b.importForeign)
}

// DisableShare disconnects the blaster from its pool. Long-lived
// blasters must call this at the end of a shared query so a later
// unshared query cannot publish under a stale generation.
func (b *Blaster) DisableShare() {
	b.share = nil
	b.S.ClearShareHooks()
}

// SetShareAct declares the activation literal the current query is
// guarded by. Exported clauses containing ¬act become a portable
// guard slot; every imported clause is guarded with ¬act locally so
// it cannot outlive this query in the persistent circuit.
func (b *Blaster) SetShareAct(act sat.Lit) {
	b.shareAct = act
	b.shareActSet = true
}

// ClearShareAct removes the activation declaration (stateless queries
// assert the query outright and need no guard).
func (b *Blaster) ClearShareAct() {
	b.shareActSet = false
}

// exportShared translates one learnt clause into named-variable form
// and publishes it. Clauses with untranslatable literals (Tseitin
// gates, stale activation literals from other queries) are dropped:
// they constrain this encoding, not the query.
func (b *Blaster) exportShared(lits []sat.Lit, lbd int) {
	out := make([]SharedLit, 0, len(lits))
	for _, l := range lits {
		if b.shareActSet && l == b.shareAct.Not() {
			out = append(out, SharedLit{Act: true})
			continue
		}
		vb, ok := b.owner[l.Var()]
		if !ok {
			return
		}
		out = append(out, SharedLit{Name: vb.name, Bit: vb.bit, Neg: l.Neg()})
	}
	b.share.publish(SharedClause{Gen: b.share.pool.gen.Load(), Lits: out})
}

// importForeign drains the pool and translates clauses into this
// blaster's encoding. Clauses over variables this encoding never
// allocated are skipped (the word-level rewriter may have eliminated
// them here). When the query is guarded (SetShareAct), every imported
// clause gets ¬act appended unless the exporter's guard slot already
// mapped to it — an unguarded foreign fact holds for the query, and
// ¬act ∨ D is the weakening that makes it safe to keep in a circuit
// that outlives the query.
func (b *Blaster) importForeign(max int) [][]sat.Lit {
	if siteShare.Fire() {
		fault.PanicAt("bitblast.share")
	}
	batch := b.share.drain(max, b.stop)
	out := make([][]sat.Lit, 0, len(batch))
	for _, c := range batch {
		lits, ok := b.translateIn(c)
		if ok {
			out = append(out, lits)
		}
	}
	return out
}

func (b *Blaster) translateIn(c SharedClause) ([]sat.Lit, bool) {
	lits := make([]sat.Lit, 0, len(c.Lits)+1)
	guarded := false
	for _, sl := range c.Lits {
		if sl.Act {
			// The exporter's guard maps to ours; a stateless importer
			// asserts the query outright, making the guard vacuous.
			if b.shareActSet && !guarded {
				lits = append(lits, b.shareAct.Not())
				guarded = true
			}
			continue
		}
		bits, ok := b.vars[sl.Name]
		if !ok || sl.Bit < 0 || sl.Bit >= len(bits) {
			return nil, false
		}
		l := bits[sl.Bit]
		if sl.Neg {
			l = l.Not()
		}
		lits = append(lits, l)
	}
	if b.shareActSet && !guarded {
		lits = append(lits, b.shareAct.Not())
	}
	return lits, true
}

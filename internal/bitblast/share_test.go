package bitblast

import (
	"sync/atomic"
	"testing"

	"mbasolver/internal/sat"
)

func TestPoolPublishDrain(t *testing.T) {
	p := NewPool(3)
	a, b, c := p.Endpoint(0), p.Endpoint(1), p.Endpoint(2)
	cl := SharedClause{Lits: []SharedLit{{Name: "x", Bit: 0}}}
	a.publish(cl)

	if got := a.drain(10, nil); len(got) != 0 {
		t.Fatalf("publisher drained its own clause: %v", got)
	}
	if got := b.drain(10, nil); len(got) != 1 {
		t.Fatalf("endpoint 1 drained %d clauses, want 1", len(got))
	}
	if got := c.drain(10, nil); len(got) != 1 {
		t.Fatalf("endpoint 2 drained %d clauses, want 1", len(got))
	}
	// Drained channels are empty.
	if got := b.drain(10, nil); len(got) != 0 {
		t.Fatalf("second drain returned %d clauses, want 0", len(got))
	}
}

func TestPoolGenerationFiltersStale(t *testing.T) {
	p := NewPool(2)
	a, b := p.Endpoint(0), p.Endpoint(1)
	a.publish(SharedClause{Gen: p.gen.Load(), Lits: []SharedLit{{Name: "x", Bit: 0}}})
	p.NextQuery()
	if got := b.drain(10, nil); len(got) != 0 {
		t.Fatalf("stale clause survived a generation bump: %v", got)
	}
	if p.Stats().Stale != 1 {
		t.Fatalf("Stale = %d, want 1", p.Stats().Stale)
	}
}

func TestPoolDropsOnFullChannel(t *testing.T) {
	p := NewPool(2)
	a := p.Endpoint(0)
	cl := SharedClause{Lits: []SharedLit{{Name: "x", Bit: 0}}}
	for i := 0; i < poolCapacity; i++ {
		a.publish(cl)
	}
	a.publish(cl) // peer channel is full now
	st := p.Stats()
	if st.Published != poolCapacity || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want %d published / 1 dropped", st, poolCapacity)
	}
}

func TestPoolDrainRespectsStop(t *testing.T) {
	p := NewPool(2)
	a, b := p.Endpoint(0), p.Endpoint(1)
	a.publish(SharedClause{Lits: []SharedLit{{Name: "x", Bit: 0}}})
	var stop atomic.Bool
	stop.Store(true)
	if got := b.drain(10, &stop); len(got) != 0 {
		t.Fatalf("drain under a raised stop flag returned %d clauses", len(got))
	}
}

// TestShareTranslationRoundTrip exports a clause over named variable
// bits from one blaster and imports it into another with an
// independently built (different) encoding; the literals must land on
// the importer's bits for the same named variable.
func TestShareTranslationRoundTrip(t *testing.T) {
	p := NewPool(2)
	ba := New(sat.DefaultOptions())
	bb := New(sat.DefaultOptions())
	ba.EnableShare(p.Endpoint(0))
	bb.EnableShare(p.Endpoint(1))

	xa := ba.VarBits("x", 4)
	// Skew the importer's variable numbering so a raw index copy would
	// be caught: allocate an unrelated variable first.
	bb.VarBits("pad", 3)
	xb := bb.VarBits("x", 4)

	ba.exportShared([]sat.Lit{xa[0], xa[2].Not()}, 2)
	got := bb.importForeign(10)
	if len(got) != 1 {
		t.Fatalf("imported %d clauses, want 1", len(got))
	}
	want := []sat.Lit{xb[0], xb[2].Not()}
	if len(got[0]) != 2 || got[0][0] != want[0] || got[0][1] != want[1] {
		t.Fatalf("translated clause = %v, want %v", got[0], want)
	}
}

// TestShareGateClauseDropped: clauses containing Tseitin gate literals
// are local artifacts and must not be published.
func TestShareGateClauseDropped(t *testing.T) {
	p := NewPool(2)
	ba := New(sat.DefaultOptions())
	ba.EnableShare(p.Endpoint(0))
	xa := ba.VarBits("x", 2)
	gate := ba.mkAnd(xa[0], xa[1]) // gate literal, not in the owner map
	ba.exportShared([]sat.Lit{xa[0], gate}, 2)
	if st := p.Stats(); st.Published != 0 {
		t.Fatalf("gate clause was published: %+v", st)
	}
}

// TestShareActGuard: the exporter's activation slot maps to the
// importer's own guard, and unguarded foreign clauses are re-guarded
// so they cannot outlive the importer's current query.
func TestShareActGuard(t *testing.T) {
	p := NewPool(2)
	ba := New(sat.DefaultOptions())
	bb := New(sat.DefaultOptions())
	ba.EnableShare(p.Endpoint(0))
	bb.EnableShare(p.Endpoint(1))

	xa := ba.VarBits("x", 2)
	xb := bb.VarBits("x", 2)
	actA := ba.Assume(xa[0])
	actB := bb.Assume(xb[0])
	ba.SetShareAct(actA)
	bb.SetShareAct(actB)

	// Exporter's guarded clause: ¬actA ∨ x0.
	ba.exportShared([]sat.Lit{actA.Not(), xa[0]}, 2)
	got := bb.importForeign(10)
	if len(got) != 1 {
		t.Fatalf("imported %d clauses, want 1", len(got))
	}
	want := []sat.Lit{actB.Not(), xb[0]}
	if len(got[0]) != 2 || got[0][0] != want[0] || got[0][1] != want[1] {
		t.Fatalf("guard-mapped clause = %v, want %v", got[0], want)
	}

	// Unguarded clause from a stateless exporter gets the importer's
	// guard appended.
	ba.ClearShareAct()
	ba.exportShared([]sat.Lit{xa[1].Not()}, 1)
	got = bb.importForeign(10)
	if len(got) != 1 {
		t.Fatalf("imported %d clauses, want 1", len(got))
	}
	want = []sat.Lit{xb[1].Not(), actB.Not()}
	if len(got[0]) != 2 || got[0][0] != want[0] || got[0][1] != want[1] {
		t.Fatalf("re-guarded clause = %v, want %v", got[0], want)
	}
}

// TestShareUnknownVarSkipped: a clause over a variable the importer
// never blasted is skipped, not mistranslated.
func TestShareUnknownVarSkipped(t *testing.T) {
	p := NewPool(2)
	ba := New(sat.DefaultOptions())
	bb := New(sat.DefaultOptions())
	ba.EnableShare(p.Endpoint(0))
	bb.EnableShare(p.Endpoint(1))
	ya := ba.VarBits("y", 2)
	bb.VarBits("x", 2) // importer only knows x
	ba.exportShared([]sat.Lit{ya[0]}, 1)
	if got := bb.importForeign(10); len(got) != 0 {
		t.Fatalf("clause over unknown variable imported: %v", got)
	}
}

package bv

import "strconv"

// RewriteLevel selects how much word-level preprocessing a solver
// personality performs before bit-blasting. The three levels model the
// practical differences between the paper's solvers: Boolector's
// aggressive term rewriting is a large part of why it wins on linear
// MBA (paper Table 2), so the btorsim personality uses RewriteFull
// while z3sim and stpsim use lighter levels.
type RewriteLevel uint8

const (
	// RewriteNone performs no preprocessing.
	RewriteNone RewriteLevel = iota
	// RewriteBasic folds constants and applies unit/zero laws.
	RewriteBasic
	// RewriteFull additionally normalizes commutative operands, shares
	// structurally equal subterms and applies idempotence /
	// complementation / absorption laws.
	RewriteFull
)

// Rewriter performs word-level simplification with hash-consing. A
// Rewriter is single-goroutine; its term cache persists across calls so
// rewritten DAGs share nodes.
type Rewriter struct {
	level RewriteLevel
	cons  map[string]*Term
	memo  map[*Term]*Term
	keys  map[*Term]string
	buf   []byte // Key's scratch
}

// NewRewriter returns a rewriter at the given level.
func NewRewriter(level RewriteLevel) *Rewriter {
	return &Rewriter{
		level: level,
		cons:  map[string]*Term{},
		memo:  map[*Term]*Term{},
		keys:  map[*Term]string{},
	}
}

// Rewrite returns a simplified term equivalent to t.
func (r *Rewriter) Rewrite(t *Term) *Term {
	if r.level == RewriteNone {
		return t
	}
	if out, ok := r.memo[t]; ok {
		return out
	}
	out := r.rewriteNode(t)
	r.memo[t] = out
	return out
}

func (r *Rewriter) rewriteNode(t *Term) *Term {
	if t.Op == Const || t.Op == Var {
		return r.intern(t)
	}
	args := make([]*Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = r.Rewrite(a)
	}
	n := &Term{Op: t.Op, Width: t.Width, Args: args}

	if out := r.foldConst(n); out != nil {
		return r.intern(out)
	}
	if r.level >= RewriteFull {
		if out := r.algebraic(n); out != nil {
			return r.intern(out)
		}
		n = r.normalizeCommutative(n)
		if out := r.canonicalizeCone(n); out != nil {
			return out // already interned by the builder
		}
	} else if out := r.unitLaws(n); out != nil {
		return r.intern(out)
	}
	return r.intern(n)
}

// foldConst evaluates operators whose arguments are all constants.
func (r *Rewriter) foldConst(t *Term) *Term {
	for _, a := range t.Args {
		if a.Op != Const {
			return nil
		}
	}
	return NewConst(Eval(t, nil), t.Width)
}

// unitLaws applies neutral/absorbing element rules.
func (r *Rewriter) unitLaws(t *Term) *Term {
	if len(t.Args) != 2 {
		if t.Op == Not && t.Args[0].Op == Not {
			return t.Args[0].Args[0]
		}
		if t.Op == Neg && t.Args[0].Op == Neg {
			return t.Args[0].Args[0]
		}
		return nil
	}
	a, b := t.Args[0], t.Args[1]
	// Put the constant on the right for uniform handling.
	if a.Op == Const && b.Op != Const {
		a, b = b, a
	}
	if b.Op != Const {
		return nil
	}
	allOnes := NewConst(^uint64(0), t.Width).Val
	switch t.Op {
	case And:
		if b.Val == 0 {
			return NewConst(0, t.Width)
		}
		if b.Val == allOnes {
			return a
		}
	case Or:
		if b.Val == 0 {
			return a
		}
		if b.Val == allOnes {
			return NewConst(allOnes, t.Width)
		}
	case Xor:
		if b.Val == 0 {
			return a
		}
		if b.Val == allOnes {
			return Unary(Not, a)
		}
	case Add:
		if b.Val == 0 {
			return a
		}
	case Sub:
		if t.Args[1].Op == Const && t.Args[1].Val == 0 {
			return t.Args[0]
		}
	case Mul:
		if b.Val == 0 {
			return NewConst(0, t.Width)
		}
		if b.Val == 1 {
			return a
		}
	}
	return nil
}

// algebraic applies the stronger identity set of RewriteFull.
func (r *Rewriter) algebraic(t *Term) *Term {
	if out := r.unitLaws(t); out != nil {
		return out
	}
	if len(t.Args) != 2 {
		return nil
	}
	a, b := t.Args[0], t.Args[1]
	same := a == b || r.Key(a) == r.Key(b)
	complement := r.isComplement(a, b)
	switch t.Op {
	case And:
		if same {
			return a
		}
		if complement {
			return NewConst(0, t.Width)
		}
	case Or:
		if same {
			return a
		}
		if complement {
			return NewConst(^uint64(0), t.Width)
		}
	case Xor:
		if same {
			return NewConst(0, t.Width)
		}
		if complement {
			return NewConst(^uint64(0), t.Width)
		}
	case Sub:
		if same {
			return NewConst(0, t.Width)
		}
	case Eq:
		if same {
			return NewConst(1, 1)
		}
	case Ne:
		if same {
			return NewConst(0, 1)
		}
	}
	// x - y -> x + (-y) normalization exposes further sharing.
	if t.Op == Sub {
		return Binary(Add, a, Unary(Neg, b))
	}
	return nil
}

func (r *Rewriter) isComplement(a, b *Term) bool {
	if a.Op == Not && (a.Args[0] == b || r.Key(a.Args[0]) == r.Key(b)) {
		return true
	}
	if b.Op == Not && (b.Args[0] == a || r.Key(b.Args[0]) == r.Key(a)) {
		return true
	}
	return false
}

// normalizeCommutative orders the operands of commutative operators by
// their structural key so that hash-consing unifies x&y with y&x.
func (r *Rewriter) normalizeCommutative(t *Term) *Term {
	switch t.Op {
	case And, Or, Xor, Add, Mul, Eq, Ne:
		if r.Key(t.Args[1]) < r.Key(t.Args[0]) {
			return &Term{Op: t.Op, Width: t.Width, Args: []*Term{t.Args[1], t.Args[0]}}
		}
	}
	return t
}

// intern hash-conses the term so structurally equal terms are pointer
// equal, turning the tree into a DAG.
func (r *Rewriter) intern(t *Term) *Term {
	k := r.Key(t)
	if existing, ok := r.cons[k]; ok {
		return existing
	}
	r.cons[k] = t
	return t
}

// Key returns a canonical structural key for a term. Keys are cached
// per node pointer; terms are immutable so the cache never invalidates.
// A key is assembled from the cached keys of its arguments where they
// have them, so no subterm that was already keyed is serialized again;
// only the requested term's key is added to the cache.
func (r *Rewriter) Key(t *Term) string {
	if k, ok := r.keys[t]; ok {
		return k
	}
	r.buf = r.appendKey(r.buf[:0], t)
	k := string(r.buf)
	r.keys[t] = k
	return k
}

// appendKey appends t's key: "#val/width" for a constant, "name/width"
// for a variable and "(op arg ...)" otherwise.
func (r *Rewriter) appendKey(b []byte, t *Term) []byte {
	if k, ok := r.keys[t]; ok {
		return append(b, k...)
	}
	switch t.Op {
	case Const:
		b = strconv.AppendUint(append(b, '#'), t.Val, 10)
	case Var:
		b = append(b, t.Name...)
	default:
		b = append(append(b, '('), t.Op.String()...)
		for _, a := range t.Args {
			b = r.appendKey(append(b, ' '), a)
		}
		return append(b, ')')
	}
	return strconv.AppendUint(append(b, '/'), uint64(t.Width), 10)
}

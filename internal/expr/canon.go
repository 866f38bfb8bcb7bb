package expr

import (
	"bytes"
	"strconv"
	"sync"
)

// Canon returns a canonicalized copy of e: operands of commutative
// operators (&, |, ^, +, *) are sorted by their Key, double negations
// are removed, and constants inside ~/- are folded. Canonicalization is
// purely structural — it performs no MBA-specific simplification — and
// exists so that semantically written-alike subtrees (x&y vs y&x)
// compare equal, which the common-sub-expression optimization and the
// polynomial atom table rely on. Unchanged subtrees are shared with e.
func Canon(e *Expr) *Expr {
	c := getCanonizer()
	defer c.release()
	return c.canon(e)
}

// CanonKey returns Canon(e) together with its Key and its node count,
// a shared subtree counted once per path, all from one pass.
func CanonKey(e *Expr) (*Expr, string, int) {
	c := getCanonizer()
	defer c.release()
	n := c.canon(e)
	return n, string(c.key), c.nodes
}

// canonizer holds the scratch of one Canon pass. The pass is a single
// bottom-up walk that appends each canonical node's key to key as soon
// as its children are done, so a subtree's key is always a contiguous
// run of the buffer. Commutative operands are compared in place and, if
// out of order, their runs are swapped; no key is ever serialized
// twice.
type canonizer struct {
	key   []byte // keys of the canonical nodes finished so far
	ser   []byte // Hash's serialization of the same nodes (digest only)
	tmp   []byte // swap scratch
	nodes int    // canonical nodes finished so far
}

// canonizers recycles pass scratch. It holds byte buffers only, never
// a node or a key that outlives its pass.
var canonizers = sync.Pool{New: func() any { return new(canonizer) }}

// maxPooledScratch caps the buffer capacity a recycled canonizer keeps,
// so one huge expression does not pin its scratch for the process's
// lifetime.
const maxPooledScratch = 64 << 10

func getCanonizer() *canonizer { return canonizers.Get().(*canonizer) }

func (c *canonizer) release() {
	if cap(c.key) > maxPooledScratch || cap(c.ser) > maxPooledScratch || cap(c.tmp) > maxPooledScratch {
		return
	}
	c.key, c.ser, c.tmp, c.nodes = c.key[:0], c.ser[:0], c.tmp[:0], 0
	canonizers.Put(c)
}

// canon canonicalizes e and appends the canonical node's key to c.key.
func (c *canonizer) canon(e *Expr) *Expr {
	if e == nil {
		c.key = append(c.key, '_')
		return nil
	}
	switch e.Op {
	case OpVar:
		c.nodes++
		c.key = append(c.key, e.Name...)
		return e
	case OpConst:
		c.nodes++
		c.key = appendConstKey(c.key, e.Val)
		return e
	case OpNot, OpNeg:
		start := len(c.key)
		c.key = appendUnaryOpen(c.key, e.Op)
		inner := len(c.key)
		x := c.canon(e.X)
		if x != nil && x.Op == e.Op {
			// ~~a = a, -(-a) = a: keep only a's key, which sits
			// inside x's own opening and closing bracket.
			body := c.key[inner+(inner-start) : len(c.key)-1]
			c.key = c.key[:start+copy(c.key[start:], body)]
			c.nodes--
			return x.X
		}
		if x != nil && x.Op == OpConst {
			v := ^x.Val
			if e.Op == OpNeg {
				v = -x.Val
			}
			c.key = appendConstKey(c.key[:start], v)
			return Const(v)
		}
		c.key = append(c.key, ')')
		c.nodes++
		if x == e.X {
			return e
		}
		n := *e
		n.X = x
		return &n
	default:
		c.key = append(c.key, '(')
		xs := len(c.key)
		x := c.canon(e.X)
		xe := len(c.key)
		op := e.Op.String()
		c.key = append(c.key, op...)
		ys := len(c.key)
		y := c.canon(e.Y)
		ye := len(c.key)
		c.key = append(c.key, ')')
		c.nodes++
		if e.Op.isCommutative() && bytes.Compare(c.key[ys:ye], c.key[xs:xe]) < 0 {
			c.swapRuns(c.key[xs:ye], xe-xs, op)
			return &Expr{Op: e.Op, X: y, Y: x}
		}
		if x == e.X && y == e.Y {
			return e
		}
		n := *e
		n.X, n.Y = x, y
		return &n
	}
}

// swapRuns rewrites b, which holds an operand run of xn bytes, then
// sep, then the other operand's run, as the other run, sep, the first.
func (c *canonizer) swapRuns(b []byte, xn int, sep string) {
	c.tmp = append(c.tmp[:0], b[:xn]...)
	at := copy(b, b[xn+len(sep):])
	at += copy(b[at:], sep)
	copy(b[at:], c.tmp)
}

// isCommutative reports whether Canon orders the operator's operands.
func (op Op) isCommutative() bool {
	switch op {
	case OpAnd, OpOr, OpXor, OpAdd, OpMul:
		return true
	}
	return false
}

// appendConstKey appends a constant's key: '#' and the decimal value.
func appendConstKey(b []byte, v uint64) []byte {
	return strconv.AppendUint(append(b, '#'), v, 10)
}

// appendUnaryOpen appends the opening of a unary node's key.
func appendUnaryOpen(b []byte, op Op) []byte {
	if op == OpNot {
		return append(b, '~', '(')
	}
	return append(b, 'u', '-', '(')
}

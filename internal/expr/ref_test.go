package expr

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
)

// This file keeps the straightforward canonicalizer as a test-only
// reference: Canon re-serializes both operands' keys at every
// commutative node (quadratic in depth), Key formats constants with
// fmt, and Hash streams the tree into the hash node by node. The
// differential tests assert that the single-pass implementation agrees
// with it on trees, key bytes and digests. The exported names let the
// external test package (which can import the parser and the corpus
// generator) reach it.

// RefCanon is the reference Canon.
func RefCanon(e *Expr) *Expr {
	return Rewrite(e, func(n *Expr) *Expr {
		switch n.Op {
		case OpNot:
			if n.X.Op == OpNot {
				return n.X.X
			}
			if n.X.Op == OpConst {
				return Const(^n.X.Val)
			}
		case OpNeg:
			if n.X.Op == OpNeg {
				return n.X.X
			}
			if n.X.Op == OpConst {
				return Const(-n.X.Val)
			}
		case OpAnd, OpOr, OpXor, OpAdd, OpMul:
			if RefKey(n.Y) < RefKey(n.X) {
				return &Expr{Op: n.Op, X: n.Y, Y: n.X}
			}
		}
		return nil
	})
}

// RefKey is the reference Key.
func RefKey(e *Expr) string {
	var b strings.Builder
	refWriteKey(&b, e)
	return b.String()
}

func refWriteKey(b *strings.Builder, e *Expr) {
	if e == nil {
		b.WriteString("_")
		return
	}
	switch e.Op {
	case OpVar:
		b.WriteString(e.Name)
	case OpConst:
		fmt.Fprintf(b, "#%d", e.Val)
	case OpNot, OpNeg:
		if e.Op == OpNot {
			b.WriteByte('~')
		} else {
			b.WriteString("u-")
		}
		b.WriteByte('(')
		refWriteKey(b, e.X)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		refWriteKey(b, e.X)
		b.WriteString(e.Op.String())
		refWriteKey(b, e.Y)
		b.WriteByte(')')
	}
}

// RefHash is the reference Hash.
func RefHash(e *Expr) Digest {
	h := sha256.New()
	var scratch [9]byte
	refHashTerm(h, RefCanon(e), &scratch)
	var d Digest
	h.Sum(d[:0])
	return d
}

func refHashTerm(h interface{ Write([]byte) (int, error) }, e *Expr, scratch *[9]byte) {
	if e == nil {
		scratch[0] = 0xff
		h.Write(scratch[:1])
		return
	}
	switch e.Op {
	case OpVar:
		scratch[0] = byte(OpVar)
		binary.LittleEndian.PutUint64(scratch[1:], uint64(len(e.Name)))
		h.Write(scratch[:9])
		h.Write([]byte(e.Name))
	case OpConst:
		scratch[0] = byte(OpConst)
		binary.LittleEndian.PutUint64(scratch[1:], e.Val)
		h.Write(scratch[:9])
	default:
		scratch[0] = byte(e.Op)
		h.Write(scratch[:1])
		refHashTerm(h, e.X, scratch)
		if e.Op.IsBinary() {
			refHashTerm(h, e.Y, scratch)
		}
	}
}

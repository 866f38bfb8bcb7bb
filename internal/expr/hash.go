package expr

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest is a collision-resistant canonical hash of an expression tree.
// Two expressions receive the same digest exactly when their canonical
// forms (see Canon) are structurally equal, so x&y and y&x collide on
// purpose while x-y and y-x do not. Digests are stable across processes
// and across print/re-parse round trips, which makes them usable as
// persistent cache keys — the service layer keys its verdict and
// simplification caches on them.
type Digest [sha256.Size]byte

// String returns the lowercase hex rendering of the digest.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 16 hex characters — enough for log lines and
// metrics labels while staying readable.
func (d Digest) Short() string { return hex.EncodeToString(d[:8]) }

// Hash computes the canonical digest of e: the SHA-256 of an
// unambiguous length-prefixed binary serialization of Canon(e) (no
// reliance on variable-name character sets). The serialization is
// built in the same pass that canonicalizes, without building the
// canonical tree (see canonizer.digest).
func Hash(e *Expr) Digest {
	c := getCanonizer()
	defer c.release()
	c.key, c.ser = c.digest(e, c.key, c.ser)
	return sha256.Sum256(c.ser)
}

// HashString is Hash rendered as hex, for callers that want a plain
// string key.
func HashString(e *Expr) string { return Hash(e).String() }

// digest appends e's canonical key to key, as canon does, and the hash
// serialization of its canonical form to ser. Each node's
// serialization is a tag byte (its Op, or 0xff for an absent operand)
// followed by its payload: a variable's name, length-prefixed so "ab"+"c"
// and "a"+"bc" cannot alias; a constant's fixed-width little-endian
// value; or its operands in order. The encoding is prefix-free and
// injective on canonical trees. Like a key, a subtree's serialization
// is a contiguous run of ser that starts with its root's tag, so the
// pass reads the canonical root of a finished operand from that tag
// and moves both runs together when it swaps commutative operands.
// The buffers travel as arguments rather than canonizer fields, which
// keeps their updates off the heap.
func (c *canonizer) digest(e *Expr, key, ser []byte) ([]byte, []byte) {
	if e == nil {
		return append(key, '_'), append(ser, 0xff)
	}
	switch e.Op {
	case OpVar:
		ser = binary.LittleEndian.AppendUint64(append(ser, byte(OpVar)), uint64(len(e.Name)))
		return append(key, e.Name...), append(ser, e.Name...)
	case OpConst:
		return appendConstKey(key, e.Val), binary.LittleEndian.AppendUint64(append(ser, byte(OpConst)), e.Val)
	case OpNot, OpNeg:
		start, sstart := len(key), len(ser)
		key = appendUnaryOpen(key, e.Op)
		inner := len(key)
		key, ser = c.digest(e.X, key, append(ser, byte(e.Op)))
		switch Op(ser[sstart+1]) {
		case e.Op:
			// ~~a = a, -(-a) = a: keep only a's runs (see canon).
			body := key[inner+(inner-start) : len(key)-1]
			return key[:start+copy(key[start:], body)], ser[:sstart+copy(ser[sstart:], ser[sstart+2:])]
		case OpConst:
			v := binary.LittleEndian.Uint64(ser[sstart+2:])
			if e.Op == OpNot {
				v = ^v
			} else {
				v = -v
			}
			return appendConstKey(key[:start], v), binary.LittleEndian.AppendUint64(append(ser[:sstart], byte(OpConst)), v)
		}
		return append(key, ')'), ser
	}
	key = append(key, '(')
	xs, sxs := len(key), len(ser)+1
	key, ser = c.digest(e.X, key, append(ser, byte(e.Op)))
	xe, sys := len(key), len(ser)
	op := e.Op.String()
	key = append(key, op...)
	ys := len(key)
	key, ser = c.digest(e.Y, key, ser)
	ye := len(key)
	key = append(key, ')')
	if e.Op.isCommutative() && bytes.Compare(key[ys:ye], key[xs:xe]) < 0 {
		c.swapRuns(key[xs:ye], xe-xs, op)
		c.swapRuns(ser[sxs:], sys-sxs, "")
	}
	return key, ser
}

package expr

import (
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

// Hash computes the canonical digest of e. The tree is canonicalized
// first, then serialized with an unambiguous length-prefixed binary
// encoding (no reliance on variable-name character sets) and hashed
// with SHA-256.
func Hash(e *Expr) Digest {
	c := getCanonizer()
	defer c.release()
	c.tmp = appendHashTerm(c.tmp[:0], c.canon(e))
	return sha256.Sum256(c.tmp)
}

// HashString is Hash rendered as hex, for callers that want a plain
// string key.
func HashString(e *Expr) string { return Hash(e).String() }

// appendHashTerm serializes one node: a tag byte, then the payload.
// Variable names are length-prefixed so "ab"+"c" and "a"+"bc" cannot
// alias; constants are fixed-width little-endian; children follow in
// order, with a distinct tag for nil (absent operand), so the encoding
// is prefix-free and injective on canonical trees.
func appendHashTerm(b []byte, e *Expr) []byte {
	if e == nil {
		return append(b, 0xff)
	}
	switch e.Op {
	case OpVar:
		b = binary.LittleEndian.AppendUint64(append(b, byte(OpVar)), uint64(len(e.Name)))
		return append(b, e.Name...)
	case OpConst:
		return binary.LittleEndian.AppendUint64(append(b, byte(OpConst)), e.Val)
	}
	b = appendHashTerm(append(b, byte(e.Op)), e.X)
	if e.Op.IsBinary() {
		b = appendHashTerm(b, e.Y)
	}
	return b
}

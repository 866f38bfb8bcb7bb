// Package expr defines the abstract syntax tree for mixed
// bitwise-arithmetic (MBA) expressions.
//
// An MBA expression mixes bitwise operations (and, or, xor, not) with
// integer arithmetic (add, sub, mul, arithmetic negation) over n-bit
// two's-complement integers, i.e. the modular ring Z/2^n. The package
// provides constructors, structural predicates, a canonical printer and
// the traversal/substitution machinery that the simplifier, the metric
// analyzers and the SMT translation are built on.
package expr

import (
	"fmt"
	"sort"
)

// Op identifies the operator at the root of an expression node.
type Op uint8

// Operator kinds. OpVar and OpConst are leaves; OpNot and OpNeg are
// unary; the remaining operators are binary.
const (
	OpVar   Op = iota // named variable
	OpConst           // integer constant (mod 2^n)
	OpNot             // bitwise complement ~x
	OpNeg             // arithmetic negation -x
	OpAnd             // bitwise and x & y
	OpOr              // bitwise or x | y
	OpXor             // bitwise exclusive or x ^ y
	OpAdd             // addition x + y
	OpSub             // subtraction x - y
	OpMul             // multiplication x * y
)

// String returns the surface syntax of the operator.
func (op Op) String() string {
	switch op {
	case OpVar:
		return "var"
	case OpConst:
		return "const"
	case OpNot:
		return "~"
	case OpNeg:
		return "-"
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpXor:
		return "^"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsLeaf reports whether the operator is a variable or constant.
func (op Op) IsLeaf() bool { return op == OpVar || op == OpConst }

// IsUnary reports whether the operator takes a single operand.
func (op Op) IsUnary() bool { return op == OpNot || op == OpNeg }

// IsBinary reports whether the operator takes two operands.
func (op Op) IsBinary() bool { return op >= OpAnd }

// IsBitwise reports whether the operator belongs to the bitwise domain
// (~, &, |, ^). Leaves belong to neither domain.
func (op Op) IsBitwise() bool {
	return op == OpNot || op == OpAnd || op == OpOr || op == OpXor
}

// IsArith reports whether the operator belongs to the arithmetic domain
// (unary -, +, -, *). Leaves belong to neither domain.
func (op Op) IsArith() bool {
	return op == OpNeg || op == OpAdd || op == OpSub || op == OpMul
}

// Expr is a node of an MBA expression tree. Expressions are treated as
// immutable after construction: transformation passes build new nodes
// instead of mutating, so subtrees may be freely shared.
type Expr struct {
	Op   Op
	Name string // variable name, valid when Op == OpVar
	Val  uint64 // constant value mod 2^64, valid when Op == OpConst
	X    *Expr  // first operand (unary and binary operators)
	Y    *Expr  // second operand (binary operators)
}

// Var returns a variable leaf.
func Var(name string) *Expr { return &Expr{Op: OpVar, Name: name} }

// Const returns a constant leaf. The value is stored mod 2^64; the
// evaluation width narrows it further.
func Const(v uint64) *Expr { return &Expr{Op: OpConst, Val: v} }

// ConstInt returns a constant leaf from a signed value, using the
// two's-complement encoding (so ConstInt(-1) is the all-ones constant).
func ConstInt(v int64) *Expr { return Const(uint64(v)) }

// Not returns the bitwise complement ~x. Constant operands fold, so
// no tree ever contains ~const — which keeps the printer (which
// renders all-ones constants as -1) and the parser mutually inverse.
func Not(x *Expr) *Expr {
	if x.Op == OpConst {
		return Const(^x.Val)
	}
	return &Expr{Op: OpNot, X: x}
}

// Neg returns the arithmetic negation -x. Constant operands fold (see
// Not).
func Neg(x *Expr) *Expr {
	if x.Op == OpConst {
		return Const(-x.Val)
	}
	return &Expr{Op: OpNeg, X: x}
}

// And returns x & y.
func And(x, y *Expr) *Expr { return &Expr{Op: OpAnd, X: x, Y: y} }

// Or returns x | y.
func Or(x, y *Expr) *Expr { return &Expr{Op: OpOr, X: x, Y: y} }

// Xor returns x ^ y.
func Xor(x, y *Expr) *Expr { return &Expr{Op: OpXor, X: x, Y: y} }

// Add returns x + y.
func Add(x, y *Expr) *Expr { return &Expr{Op: OpAdd, X: x, Y: y} }

// Sub returns x - y.
func Sub(x, y *Expr) *Expr { return &Expr{Op: OpSub, X: x, Y: y} }

// Mul returns x * y.
func Mul(x, y *Expr) *Expr { return &Expr{Op: OpMul, X: x, Y: y} }

// Binary constructs a binary node with the given operator. It panics if
// op is not binary.
func Binary(op Op, x, y *Expr) *Expr {
	if !op.IsBinary() {
		panic("expr: Binary called with non-binary operator " + op.String())
	}
	return &Expr{Op: op, X: x, Y: y}
}

// Unary constructs a unary node with the given operator. It panics if
// op is not unary. Constant operands fold as in Not and Neg.
func Unary(op Op, x *Expr) *Expr {
	switch op {
	case OpNot:
		return Not(x)
	case OpNeg:
		return Neg(x)
	}
	panic("expr: Unary called with non-unary operator " + op.String())
}

// IsConst reports whether e is a constant leaf with the given value
// (compared mod 2^64).
func (e *Expr) IsConst(v uint64) bool { return e.Op == OpConst && e.Val == v }

// IsVar reports whether e is a variable leaf.
func (e *Expr) IsVar() bool { return e.Op == OpVar }

// Equal reports structural equality of two expression trees.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Op != b.Op {
		return false
	}
	switch a.Op {
	case OpVar:
		return a.Name == b.Name
	case OpConst:
		return a.Val == b.Val
	}
	if !Equal(a.X, b.X) {
		return false
	}
	if a.Op.IsBinary() {
		return Equal(a.Y, b.Y)
	}
	return true
}

// Size returns the number of nodes in the expression tree.
func (e *Expr) Size() int {
	if e == nil {
		return 0
	}
	n := 1
	if e.X != nil {
		n += e.X.Size()
	}
	if e.Y != nil {
		n += e.Y.Size()
	}
	return n
}

// Depth returns the height of the expression tree; leaves have depth 1.
func (e *Expr) Depth() int {
	if e == nil {
		return 0
	}
	dx, dy := e.X.Depth(), e.Y.Depth()
	if dy > dx {
		dx = dy
	}
	return 1 + dx
}

// Vars returns the sorted set of variable names appearing in e.
func Vars(e *Expr) []string {
	set := map[string]bool{}
	Walk(e, func(n *Expr) {
		if n.Op == OpVar {
			set[n.Name] = true
		}
	})
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Walk visits every node of e in pre-order.
func Walk(e *Expr, visit func(*Expr)) {
	if e == nil {
		return
	}
	visit(e)
	Walk(e.X, visit)
	Walk(e.Y, visit)
}

// Rewrite applies f bottom-up: children are rewritten first, then f is
// applied to the (possibly rebuilt) node. If f returns nil the node is
// kept unchanged. The input tree is not mutated.
func Rewrite(e *Expr, f func(*Expr) *Expr) *Expr {
	if e == nil {
		return nil
	}
	n := e
	if !e.Op.IsLeaf() {
		x := Rewrite(e.X, f)
		var y *Expr
		if e.Op.IsBinary() {
			y = Rewrite(e.Y, f)
		}
		if x != e.X || y != e.Y {
			c := *e
			c.X, c.Y = x, y
			n = &c
		}
	}
	if r := f(n); r != nil {
		return r
	}
	return n
}

// Substitute replaces every subtree structurally equal to from with to,
// returning the rewritten tree.
func Substitute(e, from, to *Expr) *Expr {
	return Rewrite(e, func(n *Expr) *Expr {
		if Equal(n, from) {
			return to
		}
		return nil
	})
}

// SubstituteVars replaces each variable by its binding in env. Unbound
// variables are kept.
func SubstituteVars(e *Expr, env map[string]*Expr) *Expr {
	return Rewrite(e, func(n *Expr) *Expr {
		if n.Op == OpVar {
			if r, ok := env[n.Name]; ok {
				return r
			}
		}
		return nil
	})
}

// IsBitwisePure reports whether e consists only of variables and
// bitwise operators (the "bitwise expression" e_i of the paper's
// Definition 1).
func IsBitwisePure(e *Expr) bool {
	if e == nil {
		return false
	}
	switch e.Op {
	case OpVar:
		return true
	case OpConst:
		return false
	case OpNot:
		return IsBitwisePure(e.X)
	case OpAnd, OpOr, OpXor:
		return IsBitwisePure(e.X) && IsBitwisePure(e.Y)
	}
	return false
}

// Key returns a compact canonical string for the tree, suitable as a
// map key. Unlike String it is unambiguous without precedence rules. A
// variable's key is its name, so leaf keys cost no allocation.
func (e *Expr) Key() string {
	if e != nil && e.Op == OpVar {
		return e.Name
	}
	return string(appendKey(nil, e))
}

func appendKey(b []byte, e *Expr) []byte {
	if e == nil {
		return append(b, '_')
	}
	switch e.Op {
	case OpVar:
		return append(b, e.Name...)
	case OpConst:
		return appendConstKey(b, e.Val)
	case OpNot, OpNeg:
		b = appendKey(appendUnaryOpen(b, e.Op), e.X)
		return append(b, ')')
	default:
		b = appendKey(append(b, '('), e.X)
		b = appendKey(append(b, e.Op.String()...), e.Y)
		return append(b, ')')
	}
}

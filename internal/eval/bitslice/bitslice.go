// Package bitslice compiles MBA expressions into flat, allocation-free
// bytecode and evaluates 64 test vectors per uint64 operation by
// bitslicing.
//
// A compiled Prog is a register program over the term DAG: constants
// are folded at compile time, structurally identical subterms share one
// register (DAG deduplication), and every instruction writes a fresh
// destination register, so kernels never have to worry about aliasing.
//
// Two execution engines interpret the same bytecode:
//
//   - scalar: registers hold 64 lanes of word values; each instruction
//     runs a tight 64-iteration loop of ordinary uint64 arithmetic.
//     One instruction decode buys 64 evaluations.
//   - sliced: registers hold one uint64 *bit-plane* per bit of the
//     register's width; lane i of plane j is bit j of test vector i.
//     Bitwise operators cost one word-op per plane for all 64 lanes;
//     add/sub/neg ripple a carry/borrow plane across the width; mul is
//     shift-and-add over the planes (constant multipliers iterate only
//     the constant's set bits).
//
// The compiler prices both engines with a static cost model and
// EngineAuto picks the cheaper one, so word-level-heavy programs (wide
// variable multiplies) fall back to the scalar interpreter while
// bitwise-heavy programs run sliced.
package bitslice

import (
	"fmt"
	"math/bits"
	"sort"

	"mbasolver/internal/bv"
	"mbasolver/internal/expr"
)

type opcode uint8

const (
	opNot opcode = iota
	opNeg
	opAnd
	opOr
	opXor
	opAdd
	opSub
	opMul
	opMulC // b is an index into Prog.cpool, not a register
	opEq
	opNe
	opUlt
)

// instr is one bytecode instruction. w is the width of the result
// register; aw is the width of the argument registers (they differ
// only for the predicates, whose result width is 1).
type instr struct {
	op     opcode
	w, aw  uint8
	dst, a uint32
	b      uint32
}

// constEntry prefills a register with a compile-time constant.
type constEntry struct {
	reg uint32
	val uint64
}

// Prog is a compiled expression: a register program plus the metadata
// an Evaluator needs to run it. Programs are immutable after Compile
// and safe for concurrent use by any number of Evaluators.
type Prog struct {
	Width uint     // result width in bits (1 for predicates)
	Vars  []string // sorted; variable i is bound to register i

	code     []instr
	consts   []constEntry
	cpool    []uint64 // constants referenced by opMulC
	out      uint32   // result register
	nregs    int
	regWidth []uint8 // width of each register, indexed by register

	slicedCost, scalarCost float64
}

// NumInstrs reports the length of the compiled bytecode (0 when the
// whole expression folded to a constant or a single variable).
func (p *Prog) NumInstrs() int { return len(p.code) }

// Sliced reports whether EngineAuto would run this program on the
// bitsliced engine rather than the scalar interpreter.
func (p *Prog) Sliced() bool { return p.slicedCost < p.scalarCost }

func maskOf(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// Compile lowers e at the given width into bytecode. It panics only on
// widths outside 1..64 (mirroring eval.Mask); every well-formed
// expression compiles.
func Compile(e *expr.Expr, width uint) (*Prog, error) {
	if width == 0 || width > 64 {
		return nil, fmt.Errorf("bitslice: width %d out of range 1..64", width)
	}
	return CompileTerm(bv.FromExpr(e, width))
}

// CompileTerm lowers a bit-vector term (including Eq/Ne/Ult
// predicates, which compile to width-1 results) into bytecode.
func CompileTerm(t *bv.Term) (*Prog, error) {
	if t == nil {
		return nil, fmt.Errorf("bitslice: nil term")
	}
	vars := bv.Vars(t)
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)

	b := &builder{
		varReg:   make(map[string]uint32, len(names)),
		constReg: make(map[ckey]uint32),
		cpoolIdx: make(map[uint64]uint32),
		memo:     make(map[nkey]uint32),
		termMemo: make(map[*bv.Term]uint32),
		constOf:  make(map[uint32]uint64),
	}
	for _, n := range names {
		w := vars[n]
		b.varReg[n] = b.newReg(uint8(w))
	}
	out, err := b.emitTerm(t)
	if err != nil {
		return nil, err
	}
	p := &Prog{
		Width:    t.Width,
		Vars:     names,
		code:     b.code,
		consts:   b.consts,
		cpool:    b.cpool,
		out:      out,
		nregs:    int(b.next),
		regWidth: b.regWidth,
	}
	p.price()
	return p, nil
}

type ckey struct {
	val uint64
	w   uint8
}

type nkey struct {
	op    opcode
	w, aw uint8
	a, b  uint32
}

type builder struct {
	varReg   map[string]uint32
	constReg map[ckey]uint32
	cpoolIdx map[uint64]uint32
	memo     map[nkey]uint32
	termMemo map[*bv.Term]uint32
	constOf  map[uint32]uint64

	next     uint32
	regWidth []uint8
	code     []instr
	consts   []constEntry
	cpool    []uint64
}

func (b *builder) newReg(w uint8) uint32 {
	r := b.next
	b.next++
	b.regWidth = append(b.regWidth, w)
	return r
}

func (b *builder) constant(v uint64, w uint8) uint32 {
	v &= maskOf(uint(w))
	k := ckey{v, w}
	if r, ok := b.constReg[k]; ok {
		return r
	}
	r := b.newReg(w)
	b.constReg[k] = r
	b.constOf[r] = v
	b.consts = append(b.consts, constEntry{reg: r, val: v})
	return r
}

func (b *builder) cpoolAdd(v uint64) uint32 {
	if i, ok := b.cpoolIdx[v]; ok {
		return i
	}
	i := uint32(len(b.cpool))
	b.cpool = append(b.cpool, v)
	b.cpoolIdx[v] = i
	return i
}

func (b *builder) emitTerm(t *bv.Term) (uint32, error) {
	if r, ok := b.termMemo[t]; ok {
		return r, nil
	}
	var r uint32
	var err error
	w := uint8(t.Width)
	switch t.Op {
	case bv.Const:
		r = b.constant(t.Val, w)
	case bv.Var:
		r = b.varReg[t.Name]
	case bv.Not, bv.Neg:
		var a uint32
		if a, err = b.emitTerm(t.Args[0]); err != nil {
			return 0, err
		}
		r = b.emit1(opFor(t.Op), w, a)
	case bv.And, bv.Or, bv.Xor, bv.Add, bv.Sub, bv.Mul:
		var a, c uint32
		if a, err = b.emitTerm(t.Args[0]); err != nil {
			return 0, err
		}
		if c, err = b.emitTerm(t.Args[1]); err != nil {
			return 0, err
		}
		r = b.emit2(opFor(t.Op), w, w, a, c)
	case bv.Eq, bv.Ne, bv.Ult:
		var a, c uint32
		if a, err = b.emitTerm(t.Args[0]); err != nil {
			return 0, err
		}
		if c, err = b.emitTerm(t.Args[1]); err != nil {
			return 0, err
		}
		r = b.emit2(opFor(t.Op), 1, uint8(t.Args[0].Width), a, c)
	default:
		return 0, fmt.Errorf("bitslice: unsupported op %v", t.Op)
	}
	b.termMemo[t] = r
	return r, nil
}

func opFor(op bv.Op) opcode {
	switch op {
	case bv.Not:
		return opNot
	case bv.Neg:
		return opNeg
	case bv.And:
		return opAnd
	case bv.Or:
		return opOr
	case bv.Xor:
		return opXor
	case bv.Add:
		return opAdd
	case bv.Sub:
		return opSub
	case bv.Mul:
		return opMul
	case bv.Eq:
		return opEq
	case bv.Ne:
		return opNe
	case bv.Ult:
		return opUlt
	}
	panic("bitslice: no opcode for " + op.String())
}

func (b *builder) emit1(op opcode, w uint8, a uint32) uint32 {
	if va, ok := b.constOf[a]; ok {
		m := maskOf(uint(w))
		switch op {
		case opNot:
			return b.constant(^va&m, w)
		case opNeg:
			return b.constant((-va)&m, w)
		}
	}
	k := nkey{op: op, w: w, aw: w, a: a}
	if r, ok := b.memo[k]; ok {
		return r
	}
	r := b.newReg(w)
	b.code = append(b.code, instr{op: op, w: w, aw: w, dst: r, a: a})
	b.memo[k] = r
	return r
}

func commutative(op opcode) bool {
	switch op {
	case opAnd, opOr, opXor, opAdd, opMul, opEq, opNe:
		return true
	}
	return false
}

func (b *builder) emit2(op opcode, w, aw uint8, a, c uint32) uint32 {
	m := maskOf(uint(aw))
	va, aConst := b.constOf[a]
	vc, cConst := b.constOf[c]
	if aConst && cConst {
		return b.constant(fold2(op, m, va, vc), w)
	}
	// Canonicalize commutative operands so structurally equal subterms
	// dedup regardless of argument order, and so a lone constant sits
	// on the c side for the identity checks and opMulC below.
	if commutative(op) && (a > c || aConst) {
		a, c = c, a
		va, aConst, vc, cConst = vc, cConst, va, aConst
	}
	if cConst {
		switch op {
		case opAnd:
			if vc == 0 {
				return b.constant(0, w)
			}
			if vc == m {
				return a
			}
		case opOr:
			if vc == 0 {
				return a
			}
			if vc == m {
				return b.constant(m, w)
			}
		case opXor, opAdd:
			if vc == 0 {
				return a
			}
		case opSub:
			if vc == 0 {
				return a
			}
		case opMul:
			switch vc {
			case 0:
				return b.constant(0, w)
			case 1:
				return a
			}
			return b.emitMulC(w, a, vc)
		}
	}
	if a == c {
		switch op {
		case opAnd, opOr:
			return a
		case opXor, opSub:
			return b.constant(0, w)
		case opEq:
			return b.constant(1, 1)
		case opNe, opUlt:
			return b.constant(0, 1)
		}
	}
	k := nkey{op: op, w: w, aw: aw, a: a, b: c}
	if r, ok := b.memo[k]; ok {
		return r
	}
	r := b.newReg(w)
	b.code = append(b.code, instr{op: op, w: w, aw: aw, dst: r, a: a, b: c})
	b.memo[k] = r
	return r
}

func (b *builder) emitMulC(w uint8, a uint32, c uint64) uint32 {
	idx := b.cpoolAdd(c)
	k := nkey{op: opMulC, w: w, aw: w, a: a, b: idx}
	if r, ok := b.memo[k]; ok {
		return r
	}
	r := b.newReg(w)
	b.code = append(b.code, instr{op: opMulC, w: w, aw: w, dst: r, a: a, b: idx})
	b.memo[k] = r
	return r
}

func fold2(op opcode, m, a, c uint64) uint64 {
	switch op {
	case opAnd:
		return a & c
	case opOr:
		return a | c
	case opXor:
		return a ^ c
	case opAdd:
		return (a + c) & m
	case opSub:
		return (a - c) & m
	case opMul:
		return (a * c) & m
	case opEq:
		if a == c {
			return 1
		}
		return 0
	case opNe:
		if a != c {
			return 1
		}
		return 0
	case opUlt:
		if a < c {
			return 1
		}
		return 0
	}
	panic("bitslice: fold2 on unary opcode")
}

// price fills in the static cost model for both engines, in rough
// word-operations per 64-lane block. The scalar interpreter pays one
// decode-plus-execute per instruction per lane; the sliced engine pays
// per-plane kernel work plus a per-variable transpose at block load.
func (p *Prog) price() {
	var sliced float64
	for _, in := range p.code {
		w := float64(in.w)
		aw := float64(in.aw)
		switch in.op {
		case opNot, opAnd, opOr, opXor:
			sliced += w
		case opNeg:
			sliced += 2 * w
		case opAdd, opSub:
			sliced += 4 * w
		case opMul:
			sliced += 1.5 * w * w
		case opMulC:
			sliced += float64(bits.OnesCount64(p.cpool[in.b])) * 4 * w
		case opEq, opNe:
			sliced += 2 * aw
		case opUlt:
			sliced += 4 * aw
		}
	}
	// Transposing each variable block in, plus the result block out.
	sliced += float64(len(p.Vars)+1) * 400
	p.slicedCost = sliced
	// The scalar engine runs ~64 word ops per instruction per block;
	// 176 (not 256) reflects its mask-free full-width fast paths, which
	// most instructions hit (narrow programs pay the mask but win the
	// comparison against sliced far less often anyway).
	p.scalarCost = float64(len(p.code)) * 176
}

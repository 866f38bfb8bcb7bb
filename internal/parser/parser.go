// Package parser implements a lexer and a precedence-climbing parser
// for the textual MBA expression syntax used throughout the MBA
// literature (and by the corpus files of this repository).
//
// The grammar follows C operator precedence, loosest first:
//
//	expr   := unary { binop unary }
//	binop  := "|" < "^" < "&" < "+" "-" < "*"   (each left-associative)
//	unary  := ("~"|"-") unary | primary
//	primary:= ident | number | "(" expr ")"
//
// One loop parses every binary level: an operator that binds tighter
// than its left neighbour recurses for its right operand, an equal one
// continues the loop. A parse takes its nodes from one slab sized by
// the input's count of operators, identifiers and numbers, and folds
// ~c and -c into the constant's own slot.
//
// Numbers are decimal (reduced mod 2^64) or 0x-prefixed hexadecimal.
// Identifiers are ASCII, [A-Za-z_][A-Za-z0-9_]*; any other character
// is an error that names the decoded rune at its first byte's offset.
package parser

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"mbasolver/internal/expr"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct // one of ~ & | ^ + - * ( )
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// SyntaxError describes a parse failure with its byte offset in the
// input string.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("parse error at offset %d: %s", e.Pos, e.Msg)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isOp(c) || c == '(' || c == ')':
		l.pos++
		return token{tokPunct, l.src[start:l.pos], start}, nil
	case isDigit(c):
		l.pos++
		hex := c == '0' && l.pos < len(l.src) && (l.src[l.pos] == 'x' || l.src[l.pos] == 'X')
		if hex {
			l.pos++
		}
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || hex && isHexDigit(l.src[l.pos])) {
			l.pos++
		}
		if hex && l.pos == start+2 {
			return token{}, &SyntaxError{start, "malformed hexadecimal literal"}
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], start}, nil
	}
	r, _ := utf8.DecodeRuneInString(l.src[start:])
	return token{}, &SyntaxError{start, fmt.Sprintf("unexpected character %q", r)}
}

func isSpace(c byte) bool      { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool      { return c-'0' < 10 }
func isHexDigit(c byte) bool   { return isDigit(c) || (c|0x20)-'a' < 6 }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20)-'a' < 26 }
func isIdentCont(c byte) bool  { return c == '_' || (c|0x20)-'a' < 26 || c-'0' < 10 }
func isOp(c byte) bool {
	return c == '~' || c == '&' || c == '|' || c == '^' || c == '+' || c == '-' || c == '*'
}

type parser struct {
	lex  lexer
	tok  token
	slab []expr.Expr // backing store of the tree's nodes
}

// Parse parses an MBA expression from its textual form.
func Parse(src string) (*expr.Expr, error) {
	p := &parser{lex: lexer{src: src}, slab: make([]expr.Expr, 0, nodeBound(src))}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, &SyntaxError{p.tok.pos, fmt.Sprintf("unexpected %q after expression", p.tok.text)}
	}
	return e, nil
}

// nodeBound is the number of nodes a successful parse of src makes at
// most: one per operator and per identifier or number. In any input
// that parses, a run of identifier and digit characters is exactly one
// identifier or number, so counting runs counts them.
func nodeBound(src string) int {
	n, inWord := 0, false
	for i := 0; i < len(src); i++ {
		c := src[i]
		word := isIdentCont(c)
		if word && !inWord || isOp(c) {
			n++
		}
		inWord = word
	}
	return n
}

// node returns n stored in the slab. Inputs that do not parse may
// outgrow nodeBound; their extra nodes are allocated one by one.
func (p *parser) node(n expr.Expr) *expr.Expr {
	if len(p.slab) == cap(p.slab) {
		e := new(expr.Expr)
		*e = n
		return e
	}
	p.slab = append(p.slab, n)
	return &p.slab[len(p.slab)-1]
}

// MustParse is Parse but panics on error; intended for tests, examples
// and statically known rule tables.
func MustParse(src string) *expr.Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) advance() (err error) {
	p.tok, err = p.lex.next()
	return err
}

// binaryOp returns the operator of a binary operator token and its C
// precedence, from 1 for | to 5 for *; precedence 0 means t is not a
// binary operator.
func binaryOp(t token) (expr.Op, int) {
	if t.kind != tokPunct {
		return 0, 0
	}
	switch t.text[0] {
	case '|':
		return expr.OpOr, 1
	case '^':
		return expr.OpXor, 2
	case '&':
		return expr.OpAnd, 3
	case '+':
		return expr.OpAdd, 4
	case '-':
		return expr.OpSub, 4
	case '*':
		return expr.OpMul, 5
	}
	return 0, 0
}

// parseBinary parses a unary operand followed by binary operators of
// precedence at least min, grouping left-associatively: a tighter
// operator's right operand is parsed by the recursive call, an equal
// one by the next iteration.
func (p *parser) parseBinary(min int) (*expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec := binaryOp(p.tok)
		if prec < min {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = p.node(expr.Expr{Op: op, X: left, Y: right})
	}
}

func (p *parser) parseUnary() (*expr.Expr, error) {
	if p.tok.kind != tokPunct || p.tok.text != "~" && p.tok.text != "-" {
		return p.parsePrimary()
	}
	op := expr.OpNot
	if p.tok.text == "-" {
		op = expr.OpNeg
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if x.Op == expr.OpConst {
		// Fold as expr.Unary does; the result takes the slot of x, the
		// slab's last node, which nothing else points to yet.
		v := ^x.Val
		if op == expr.OpNeg {
			v = -x.Val
		}
		if n := len(p.slab); n > 0 && x == &p.slab[n-1] {
			p.slab = p.slab[:n-1]
		}
		return p.node(expr.Expr{Op: expr.OpConst, Val: v}), nil
	}
	return p.node(expr.Expr{Op: op, X: x}), nil
}

func (p *parser) parsePrimary() (*expr.Expr, error) {
	switch {
	case p.tok.kind == tokIdent:
		e := p.node(expr.Expr{Op: expr.OpVar, Name: p.tok.text})
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Implicit multiplication of the form 2x or 2(x&y) is not in
		// the grammar; identifiers directly adjacent to another
		// primary are a syntax error caught by the caller.
		return e, nil
	case p.tok.kind == tokNumber:
		v, err := parseNumber(p.tok.text)
		if err != nil {
			return nil, &SyntaxError{p.tok.pos, err.Error()}
		}
		e := p.node(expr.Expr{Op: expr.OpConst, Val: v})
		if err := p.advance(); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.text == "(":
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseBinary(1)
		if err != nil {
			return nil, err
		}
		if p.tok.text != ")" {
			return nil, &SyntaxError{p.tok.pos, "expected ')'"}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.kind == tokEOF:
		return nil, &SyntaxError{p.tok.pos, "unexpected end of input"}
	}
	return nil, &SyntaxError{p.tok.pos, fmt.Sprintf("unexpected token %q", p.tok.text)}
}

// parseNumber reads a number token. Decimal literals wrap mod 2^64
// like C's would; hexadecimal ones must fit in 64 bits.
func parseNumber(s string) (uint64, error) {
	if len(s) > 1 && (s[1] == 'x' || s[1] == 'X') {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		v = v*10 + uint64(s[i]-'0')
	}
	return v, nil
}

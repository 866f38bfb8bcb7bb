package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"mbasolver/internal/expr"
)

// This file keeps the recursive-descent parser as a test-only
// reference: one parseLeftAssoc level per binary precedence, every
// node allocated on its own, and identifiers admitted by
// unicode.IsLetter on single bytes. The differential tests assert that
// Parse agrees with it, trees and error strings, on ASCII input.

type refTokenKind uint8

const (
	refTokEOF refTokenKind = iota
	refTokIdent
	refTokNumber
	refTokOp // one of ~ & | ^ + - *
	refTokLParen
	refTokRParen
)

type refToken struct {
	kind refTokenKind
	text string
	pos  int
}

type refLexer struct {
	src string
	pos int
}

func (l *refLexer) next() (refToken, error) {
	for l.pos < len(l.src) && refIsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return refToken{kind: refTokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return refToken{refTokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return refToken{refTokRParen, ")", start}, nil
	case strings.IndexByte("~&|^+-*", c) >= 0:
		l.pos++
		return refToken{refTokOp, string(c), start}, nil
	case c >= '0' && c <= '9':
		l.pos++
		if c == '0' && l.pos < len(l.src) && (l.src[l.pos] == 'x' || l.src[l.pos] == 'X') {
			l.pos++
			for l.pos < len(l.src) && refIsHexDigit(l.src[l.pos]) {
				l.pos++
			}
			if l.pos == start+2 {
				return refToken{}, &SyntaxError{start, "malformed hexadecimal literal"}
			}
		} else {
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		}
		return refToken{refTokNumber, l.src[start:l.pos], start}, nil
	case refIsIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && refIsIdentCont(l.src[l.pos]) {
			l.pos++
		}
		return refToken{refTokIdent, l.src[start:l.pos], start}, nil
	}
	return refToken{}, &SyntaxError{start, fmt.Sprintf("unexpected character %q", rune(c))}
}

func refIsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func refIsHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
func refIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}
func refIsIdentCont(c byte) bool {
	return refIsIdentStart(c) || c >= '0' && c <= '9'
}

type refParser struct {
	lex refLexer
	tok refToken
}

// RefParse is the reference Parse.
func RefParse(src string) (*expr.Expr, error) {
	p := &refParser{lex: refLexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != refTokEOF {
		return nil, &SyntaxError{p.tok.pos, fmt.Sprintf("unexpected %q after expression", p.tok.text)}
	}
	return e, nil
}

func (p *refParser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *refParser) acceptOp(ops string) (string, bool) {
	if p.tok.kind == refTokOp && strings.Contains(ops, p.tok.text) {
		return p.tok.text, true
	}
	return "", false
}

func (p *refParser) parseOr() (*expr.Expr, error) {
	return p.parseLeftAssoc("|", p.parseXor)
}

func (p *refParser) parseXor() (*expr.Expr, error) {
	return p.parseLeftAssoc("^", p.parseAnd)
}

func (p *refParser) parseAnd() (*expr.Expr, error) {
	return p.parseLeftAssoc("&", p.parseSum)
}

func (p *refParser) parseSum() (*expr.Expr, error) {
	return p.parseLeftAssoc("+-", p.parseTerm)
}

func (p *refParser) parseTerm() (*expr.Expr, error) {
	return p.parseLeftAssoc("*", p.parseUnary)
}

func (p *refParser) parseLeftAssoc(ops string, sub func() (*expr.Expr, error)) (*expr.Expr, error) {
	left, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptOp(ops)
		if !ok {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := sub()
		if err != nil {
			return nil, err
		}
		left = expr.Binary(refBinOp(op), left, right)
	}
}

func refBinOp(s string) expr.Op {
	switch s {
	case "&":
		return expr.OpAnd
	case "|":
		return expr.OpOr
	case "^":
		return expr.OpXor
	case "+":
		return expr.OpAdd
	case "-":
		return expr.OpSub
	case "*":
		return expr.OpMul
	}
	panic("parser: unknown binary operator " + s)
}

func (p *refParser) parseUnary() (*expr.Expr, error) {
	if op, ok := p.acceptOp("~-"); ok {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if op == "~" {
			return expr.Not(x), nil
		}
		return expr.Neg(x), nil
	}
	return p.parsePrimary()
}

func (p *refParser) parsePrimary() (*expr.Expr, error) {
	switch p.tok.kind {
	case refTokIdent:
		e := expr.Var(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Implicit multiplication of the form 2x or 2(x&y) is not in
		// the grammar; identifiers directly adjacent to another
		// primary are a syntax error caught by the caller.
		return e, nil
	case refTokNumber:
		v, err := refParseNumber(p.tok.text)
		if err != nil {
			return nil, &SyntaxError{p.tok.pos, err.Error()}
		}
		e := expr.Const(v)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return e, nil
	case refTokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != refTokRParen {
			return nil, &SyntaxError{p.tok.pos, "expected ')'"}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return e, nil
	case refTokEOF:
		return nil, &SyntaxError{p.tok.pos, "unexpected end of input"}
	}
	return nil, &SyntaxError{p.tok.pos, fmt.Sprintf("unexpected token %q", p.tok.text)}
}

func refParseNumber(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		// Values between 2^63 and 2^64-1 are fine; anything larger is
		// reduced mod 2^64 like C would.
		if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
			return refReduceMod64(s)
		}
		return 0, err
	}
	return v, nil
}

func refReduceMod64(s string) (uint64, error) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("malformed number %q", s)
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

package mpl

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// lexer scans MPL source into tokens, in place: the source string is never
// copied, and every Token.Text is a substring of it. Comments run from '#'
// to end of line. Columns count runes, and every invalid UTF-8 byte is one
// U+FFFD column.
type lexer struct {
	src  string
	off  int // byte offset of the next rune
	line int
	col  int
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

// SyntaxError reports a lexical or parse error with its position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("mpl: %s: %s", e.Pos, e.Msg)
}

// peek returns the rune at the scan position and its width in bytes, or
// (0, 0) at end of input.
func (l *lexer) peek() (rune, int) {
	if l.off >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.off:])
}

// advance steps over the rune peek returned.
func (l *lexer) advance(r rune, width int) {
	l.off += width
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
}

// skipWhile advances over the run of runes satisfying ok.
func (l *lexer) skipWhile(ok func(rune) bool) {
	for r, w := l.peek(); w > 0 && ok(r); r, w = l.peek() {
		l.advance(r, w)
	}
}

func isIdentRune(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
func notNewline(r rune) bool  { return r != '\n' }

// next returns the next token.
func (l *lexer) next() (Token, error) {
	r, w := l.peek()
	for w > 0 && (r == '#' || unicode.IsSpace(r)) {
		if r == '#' {
			l.skipWhile(notNewline)
		} else {
			l.advance(r, w)
		}
		r, w = l.peek()
	}
	pos := Pos{Line: l.line, Col: l.col}
	if w == 0 {
		return Token{Kind: TokenEOF, Pos: pos}, nil
	}
	start := l.off
	switch {
	case unicode.IsLetter(r) || r == '_':
		l.skipWhile(isIdentRune)
		text := l.src[start:l.off]
		kind := TokenIdent
		if keywords[text] {
			kind = TokenKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil
	case unicode.IsDigit(r):
		l.skipWhile(unicode.IsDigit)
		return Token{Kind: TokenInt, Text: l.src[start:l.off], Pos: pos}, nil
	}

	l.advance(r, w)
	kind := TokenKind(0)
	switch r {
	case '{':
		kind = TokenLBrace
	case '}':
		kind = TokenRBrace
	case '(':
		kind = TokenLParen
	case ')':
		kind = TokenRParen
	case ',':
		kind = TokenComma
	case '+':
		kind = TokenPlus
	case '-':
		kind = TokenMinus
	case '*':
		kind = TokenStar
	case '/':
		kind = TokenSlash
	case '%':
		kind = TokenPct
	case '=':
		kind = l.two('=', TokenEq, TokenAssign)
	case '!':
		kind = l.two('=', TokenNeq, TokenNot)
	case '<':
		kind = l.two('=', TokenLe, TokenLt)
	case '>':
		kind = l.two('=', TokenGe, TokenGt)
	case '&':
		kind = l.two('&', TokenAnd, 0)
	case '|':
		kind = l.two('|', TokenOr, 0)
	}
	if kind == 0 {
		return Token{}, &SyntaxError{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", string(r))}
	}
	return Token{Kind: kind, Text: l.src[start:l.off], Pos: pos}, nil
}

// two resolves a one-or-two-character operator whose first character has
// been consumed: yes when second follows (and is consumed), else no.
func (l *lexer) two(second rune, yes, no TokenKind) TokenKind {
	if r, w := l.peek(); w > 0 && r == second {
		l.advance(r, w)
		return yes
	}
	return no
}

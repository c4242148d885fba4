package mpl

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// collect drains a lexer, returning the token stream ending in EOF, or the
// first error.
func collect(next func() (Token, error)) ([]Token, error) {
	var toks []Token
	for {
		t, err := next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokenEOF {
			return toks, nil
		}
	}
}

// lexAll scans the whole input with the in-place lexer.
func lexAll(src string) ([]Token, error) {
	l := newLexer(src)
	return collect(l.next)
}

// refLexer is the lexer the in-place one replaced, kept as its reference:
// it copies the source to []rune and builds every token text with
// string(runes). assertLexesLikeReference holds the two to the same
// (Kind, Text, Pos) stream, or the same first error.
type refLexer struct {
	src  []rune
	off  int
	line int
	col  int
}

func (l *refLexer) errorf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) advance() rune {
	r := l.src[l.off]
	l.off++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		r := l.peek()
		switch {
		case r == '#':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case unicode.IsSpace(r):
			l.advance()
		default:
			return
		}
	}
}

func (l *refLexer) next() (Token, error) {
	l.skipSpaceAndComments()
	pos := Pos{Line: l.line, Col: l.col}
	if l.off >= len(l.src) {
		return Token{Kind: TokenEOF, Pos: pos}, nil
	}
	r := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		start := l.off
		for l.off < len(l.src) && (unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		text := string(l.src[start:l.off])
		kind := TokenIdent
		if keywords[text] {
			kind = TokenKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil
	case unicode.IsDigit(r):
		start := l.off
		for l.off < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokenInt, Text: string(l.src[start:l.off]), Pos: pos}, nil
	}

	tok := func(kind TokenKind, op Op, text string) Token {
		return Token{Kind: kind, Op: op, Text: text, Pos: pos}
	}
	one := func(t Token) (Token, error) {
		l.advance()
		return t, nil
	}
	// two lexes second after r as the operator yes, and r alone as no,
	// which is an error when it is the zero token.
	two := func(second rune, yes Op, yesText string, no Token) (Token, error) {
		l.advance()
		if l.peek() == second {
			l.advance()
			return tok(TokenOp, yes, yesText), nil
		}
		if no.Kind == 0 {
			return Token{}, l.errorf(pos, "unexpected character %q", string(r))
		}
		return no, nil
	}
	switch r {
	case '{':
		return one(tok(TokenLBrace, 0, "{"))
	case '}':
		return one(tok(TokenRBrace, 0, "}"))
	case '(':
		return one(tok(TokenLParen, 0, "("))
	case ')':
		return one(tok(TokenRParen, 0, ")"))
	case ',':
		return one(tok(TokenComma, 0, ","))
	case '+':
		return one(tok(TokenOp, OpAdd, "+"))
	case '-':
		return one(tok(TokenOp, OpSub, "-"))
	case '*':
		return one(tok(TokenOp, OpMul, "*"))
	case '/':
		return one(tok(TokenOp, OpDiv, "/"))
	case '%':
		return one(tok(TokenOp, OpMod, "%"))
	case '=':
		return two('=', OpEq, "==", tok(TokenAssign, 0, "="))
	case '!':
		return two('=', OpNe, "!=", tok(TokenOp, OpNot, "!"))
	case '<':
		return two('=', OpLe, "<=", tok(TokenOp, OpLt, "<"))
	case '>':
		return two('=', OpGe, ">=", tok(TokenOp, OpGt, ">"))
	case '&':
		return two('&', OpAnd, "&&", Token{})
	case '|':
		return two('|', OpOr, "||", Token{})
	default:
		return Token{}, l.errorf(pos, "unexpected character %q", string(r))
	}
}

func refLexAll(src string) ([]Token, error) {
	l := &refLexer{src: []rune(src), line: 1, col: 1}
	return collect(l.next)
}

// assertLexesLikeReference is the lexer differential: identical token
// stream, or identical first error (message and position).
func assertLexesLikeReference(t *testing.T, src string) {
	t.Helper()
	got, gotErr := lexAll(src)
	want, wantErr := refLexAll(src)
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("lexing %q: error %v, reference %v", src, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lexing %q:\n got %v\nwant %v", src, got, want)
	}
}

// goldenSources returns the committed Format goldens (testdata/*.golden):
// the largest real programs package mpl's own tests can reach, since
// corpus and verify import mpl.
func goldenSources(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Format goldens under testdata/ (err %v)", err)
	}
	out := make(map[string]string, len(paths))
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = string(b)
	}
	return out
}

func TestLexerMatchesReference(t *testing.T) {
	for _, src := range parseFuzzSeeds {
		assertLexesLikeReference(t, src)
	}
	for _, src := range goldenSources(t) {
		assertLexesLikeReference(t, src)
	}
	multibyte := []string{
		"program p\nvar é, 变量\nproc { é = 变量 + 1 }", // non-ASCII letters in identifiers
		"x = ٣ + 1٣",                             // a non-ASCII digit, alone and after an ASCII one
		"ab\xffcd = 1",                           // invalid byte mid-identifier
		"x # caf\xff\xfe é\ny = 变 $",             // invalid bytes mid-comment, columns after multi-byte runes
		"x = 1\r\ny = 2\r\n",                     // CRLF
		"x = 1 # comment at EOF without newline", // comment at EOF
		"x = 1 #",                                // empty comment at EOF
		"é\n  \xff",                              // error position after a multi-byte line
		"a\x00b",                                 // NUL is a character, not end of input
		"\uFFFD",                                 // an encoded U+FFFD is one column too
		"x <= y >= z == w != v < u > t = s ! r && q || p & o", // every two-character operator, then a lone &
		"a |", // lone | at end of input
	}
	for _, src := range multibyte {
		assertLexesLikeReference(t, src)
	}
}

func TestTokenTextIsSubstringOfSource(t *testing.T) {
	src := "program p\nvar é\nproc { é = é + 12 }"
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		l := newLexer(src)
		for {
			if tok, _ := l.next(); tok.Kind == TokenEOF {
				return
			}
		}
	}); n != 0 {
		t.Errorf("lexing allocates %v times per pass, want 0", n)
	}
	for _, tok := range toks {
		if tok.Kind != TokenEOF && !strings.Contains(src, tok.Text) {
			t.Errorf("token %v is not a substring of the source", tok)
		}
	}
}

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := lexAll("x = 42 + rank")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokenIdent, TokenAssign, TokenInt, TokenOp, TokenIdent, TokenEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLexOperators lexes each operator's spelling, alone and between two
// names with no space, to exactly that operator, and the punctuation to its
// kinds.
func TestLexOperators(t *testing.T) {
	for op := OpAdd; op < opCount; op++ {
		for _, src := range []string{op.String(), "a" + op.String() + "b"} {
			toks, err := lexAll(src)
			if err != nil {
				t.Errorf("lexing %q: %v", src, err)
				continue
			}
			i := (len(toks) - 1) / 2 // the operator: 2 tokens alone, 4 between names
			if len(toks) != 2 && len(toks) != 4 || toks[i].Kind != TokenOp || toks[i].Op != op || toks[i].Text != op.String() {
				t.Errorf("lexing %q: %v, want the one operator %q", src, toks, op)
			}
		}
	}
	toks, err := lexAll("( ) { } , =")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokenLParen, TokenRParen, TokenLBrace, TokenRBrace, TokenComma, TokenAssign, TokenEOF}
	if got := kinds(toks); !reflect.DeepEqual(got, want) {
		t.Errorf("punctuation lexes to %v, want %v", got, want)
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := lexAll("while whileX send sendto chkpt")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []TokenKind{TokenKeyword, TokenIdent, TokenKeyword, TokenIdent, TokenKeyword, TokenEOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q) kind = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lexAll("x # this is a comment\ny")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "x" || toks[1].Text != "y" {
		t.Fatalf("comment not skipped: %v", toks)
	}
	if toks[1].Pos.Line != 2 {
		t.Errorf("line tracking across comments wrong: %v", toks[1].Pos)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lexAll("a\n  bb")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("bb at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"$", "a & b", "a | b", "x @ y"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) succeeded, want error", src)
		} else if !strings.Contains(err.Error(), "mpl:") {
			t.Errorf("error %q lacks package prefix", err)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := lexAll("ok\n   $")
	if err == nil {
		t.Fatal("expected error")
	}
	var se *SyntaxError
	if !asSyntaxError(err, &se) {
		t.Fatalf("error type = %T, want *SyntaxError", err)
	}
	if se.Pos != (Pos{Line: 2, Col: 4}) {
		t.Errorf("error position = %v, want 2:4", se.Pos)
	}
}

func asSyntaxError(err error, target **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*target = se
	}
	return ok
}

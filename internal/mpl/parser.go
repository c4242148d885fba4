package mpl

import (
	"fmt"
	"strconv"
)

// maxDepth bounds how deep Parse lets statements, unary operators,
// parentheses and input arguments nest, and how long an operator chain may
// grow at any one level. The parser and every walker behind it (Format,
// cfg, Eval) recurse per level of the tree, and a Go stack overflow
// is fatal, not an error — so hostile input is refused here. Real programs
// nest less than 20 deep; 10,000 levels is about 10 MB of parser stack.
const maxDepth = 10000

// Parse parses MPL source into a checked Program. Statement IDs are
// assigned in source order starting at 0. The first error in source order
// is the one reported.
//
// The program's names are substrings of src and its nodes are cut from
// shared chunks: a Program keeps its source text alive (a few KB), and a
// chunk lives as long as any node in it.
func Parse(src string) (*Program, error) {
	p := parser{lex: newLexer(src)}
	p.advance()
	prog, err := p.parseProgram()
	if p.lexErr != nil {
		// Whatever the parser made of the token it could not read, the
		// error is the lexer's.
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	lex    lexer
	tok    Token // the one token of look-ahead
	lexErr error // set once the lexer fails; tok is then an end of input, for good
	nextID int
	depth  int // current nesting, at most maxDepth

	mem   nodeMem
	stmts []Stmt // statements of the open blocks, innermost last
}

func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	p.tok, p.lexErr = p.lex.next()
	if p.lexErr != nil {
		p.tok = Token{Kind: TokenEOF}
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}
}

// enter descends one nesting level; the caller leaves it with p.depth--.
func (p *parser) enter() error {
	if p.depth >= maxDepth {
		return p.errTooDeep()
	}
	p.depth++
	return nil
}

func (p *parser) errTooDeep() error {
	return p.errorf("nesting or operator chain deeper than %d levels", maxDepth)
}

func (p *parser) expect(kind TokenKind, what string) (Token, error) {
	t := p.tok
	if t.Kind != kind {
		return Token{}, p.errorf("expected %s, found %s", what, t)
	}
	p.advance()
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.tok)
	}
	p.advance()
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.Kind == TokenKeyword && p.tok.Text == kw
}

// intLit consumes an integer literal. One that does not fit an int is an
// error at the literal itself, so it is converted before the next token is
// read.
func (p *parser) intLit() (int, error) {
	if p.tok.Kind != TokenInt {
		return 0, p.errorf("expected integer literal, found %s", p.tok)
	}
	v, err := strconv.Atoi(p.tok.Text)
	if err != nil {
		return 0, p.errorf("bad integer %q", p.tok.Text)
	}
	p.advance()
	return v, nil
}

func (p *parser) newBase(pos Pos) StmtBase {
	id := p.nextID
	p.nextID++
	return StmtBase{StmtID: id, SrcPos: pos}
}

func (p *parser) parseProgram() (*Program, error) {
	if err := p.expectKeyword("program"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokenIdent, "program name")
	if err != nil {
		return nil, err
	}
	prog := &Program{Name: name.Text}

	for {
		switch {
		case p.atKeyword("const"):
			p.advance()
			id, err := p.expect(TokenIdent, "constant name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokenAssign, `"="`); err != nil {
				return nil, err
			}
			neg := false
			if p.tok.Op == OpSub {
				neg = true
				p.advance()
			}
			v, err := p.intLit()
			if err != nil {
				return nil, err
			}
			if neg {
				v = -v
			}
			prog.Consts = append(prog.Consts, Const{Name: id.Text, Value: v})
		case p.atKeyword("var"):
			p.advance()
			for {
				id, err := p.expect(TokenIdent, "variable name")
				if err != nil {
					return nil, err
				}
				prog.Vars = append(prog.Vars, id.Text)
				if p.tok.Kind != TokenComma {
					break
				}
				p.advance()
			}
		case p.atKeyword("proc"):
			p.advance()
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			prog.Body = body
			if _, err := p.expect(TokenEOF, "end of input"); err != nil {
				return nil, err
			}
			return prog, nil
		default:
			return nil, p.errorf("expected declaration or proc block, found %s", p.tok)
		}
	}
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokenLBrace, `"{"`); err != nil {
		return nil, err
	}
	mark := len(p.stmts)
	for p.tok.Kind != TokenRBrace {
		if p.tok.Kind == TokenEOF {
			return nil, p.errorf(`unexpected end of input, expected "}"`)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.advance() // consume }
	// Move the block's statements off the stack into an exactly-sized cut.
	// An empty block stays nil.
	top := p.stmts[mark:]
	p.stmts = p.stmts[:mark]
	if len(top) == 0 {
		return nil, nil
	}
	out := cut(&p.mem.stmts, len(top))
	copy(out, top)
	return out, nil
}

// parseStmt parses one statement, one nesting level down.
func (p *parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	s, err := p.parseOneStmt()
	p.depth--
	return s, err
}

func (p *parser) parseOneStmt() (Stmt, error) {
	t := p.tok
	m := &p.mem
	switch {
	case t.Kind == TokenIdent:
		// assignment
		base := p.newBase(t.Pos)
		p.advance()
		if _, err := p.expect(TokenAssign, `"=" (assignment)`); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return newNode(&m.assigns, Assign{StmtBase: base, Name: t.Text, X: x}), nil
	case p.atKeyword("chkpt"):
		base := p.newBase(t.Pos)
		p.advance()
		return newNode(&m.chkpts, Chkpt{StmtBase: base}), nil
	case p.atKeyword("send"), p.atKeyword("recv"), p.atKeyword("bcast"), p.atKeyword("reduce"):
		kw := t.Text
		base := p.newBase(t.Pos)
		p.advance()
		if _, err := p.expect(TokenLParen, `"("`); err != nil {
			return nil, err
		}
		peer, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenComma, `","`); err != nil {
			return nil, err
		}
		v, err := p.expect(TokenIdent, "variable name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen, `")"`); err != nil {
			return nil, err
		}
		switch kw {
		case "send":
			return newNode(&m.sends, Send{StmtBase: base, Dest: peer, Var: v.Text}), nil
		case "recv":
			return newNode(&m.recvs, Recv{StmtBase: base, Src: peer, Var: v.Text}), nil
		case "bcast":
			return newNode(&m.bcasts, Bcast{StmtBase: base, Root: peer, Var: v.Text}), nil
		default:
			return newNode(&m.reduces, Reduce{StmtBase: base, Root: peer, Var: v.Text}), nil
		}
	case p.atKeyword("work"):
		base := p.newBase(t.Pos)
		p.advance()
		if _, err := p.expect(TokenLParen, `"("`); err != nil {
			return nil, err
		}
		amt, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen, `")"`); err != nil {
			return nil, err
		}
		return newNode(&m.works, Work{StmtBase: base, Amount: amt}), nil
	case p.atKeyword("while"):
		base := p.newBase(t.Pos)
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return newNode(&m.whiles, While{StmtBase: base, Cond: cond, Body: body}), nil
	case p.atKeyword("if"):
		base := p.newBase(t.Pos)
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.atKeyword("else") {
			p.advance()
			if p.atKeyword("if") {
				// else-if chains: parse the nested if as the sole else stmt.
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				els = cut(&m.stmts, 1)
				els[0] = s
			} else {
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return newNode(&m.ifs, If{StmtBase: base, Cond: cond, Then: then, Else: els}), nil
	default:
		return nil, p.errorf("expected statement, found %s", t)
	}
}

// Expression grammar, by precedence climbing over binaryPrec's levels,
// lowest first: a level is a chain of operands from the level above,
// grouped to the left, or one operator at most where it does not chain.
//
//	unary:   ("-"|"!") unary | primary
//	primary: INT | IDENT | "input" "(" expr ")" | "(" expr ")"
func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(precOr) }

// parseBinary parses the grammar level whose operators have precedence
// prec: operands from the next level up, left-associative.
func (p *parser) parseBinary(prec int) (Expr, error) {
	if prec > precMul {
		return p.parseUnary()
	}
	l, err := p.parseBinary(prec + 1)
	if err != nil {
		return nil, err
	}
	// Every operator of the chain puts l one level deeper in the tree.
	for n := 1; binaryPrec(p.tok.Op) == prec; n++ {
		if p.depth+n > maxDepth {
			return nil, p.errTooDeep()
		}
		op := p.tok.Op
		p.advance()
		r, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		l = newNode(&p.mem.binaries, Binary{Op: op, L: l, R: r})
		if !chains(prec) {
			break
		}
	}
	return l, nil
}

// parseUnary parses a unary expression, one nesting level down: every
// cycle of the expression grammar (operators, parentheses, input's
// argument) passes through here.
func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	var x Expr
	var err error
	if ops[p.tok.Op].unary {
		op := p.tok.Op
		p.advance()
		if x, err = p.parseUnary(); err == nil {
			x = newNode(&p.mem.unaries, Unary{Op: op, X: x})
		}
	} else {
		x, err = p.parsePrimary()
	}
	p.depth--
	return x, err
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.tok
	switch t.Kind {
	case TokenInt:
		v, err := p.intLit()
		if err != nil {
			return nil, err
		}
		return newNode(&p.mem.intLits, IntLit{Value: v}), nil
	case TokenIdent:
		p.advance()
		if p.tok.Kind != TokenLParen {
			return newNode(&p.mem.idents, Ident{Name: t.Text}), nil
		}
		if t.Text != BuiltinInput {
			return nil, &SyntaxError{Pos: t.Pos, Msg: fmt.Sprintf("unknown builtin %q", t.Text)}
		}
		p.advance()
		if p.tok.Kind == TokenRParen {
			return nil, p.errorf("input takes 1 argument")
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind == TokenComma {
			return nil, p.errorf("input takes 1 argument")
		}
		if _, err := p.expect(TokenRParen, `")"`); err != nil {
			return nil, err
		}
		return newNode(&p.mem.inputs, Input{X: x}), nil
	case TokenLParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen, `")"`); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, p.errorf("expected expression, found %s", t)
	}
}

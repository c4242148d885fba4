// Package mpl implements MPL, a small SPMD message-passing language that
// stands in for the MPI/C programs of the paper. An MPL program is a single
// source executed by every process (the paper's SPMD assumption, §3);
// processes observe their identity through the built-in variables rank and
// nproc, communicate with blocking point-to-point send/recv and a bcast
// collective, and mark checkpoint locations with the chkpt statement.
//
// The package provides the lexer, parser, AST, semantic checker,
// source printer, and expression evaluator. Control-flow-graph
// construction lives in internal/cfg, and the checkpoint analyses of the
// paper operate on those CFGs.
package mpl

import (
	"fmt"
	"strconv"
)

// TokenKind enumerates lexical token kinds. The zero kind is invalid.
type TokenKind int

// Token kinds.
const (
	TokenEOF TokenKind = iota + 1
	TokenIdent
	TokenInt
	TokenKeyword
	TokenOp // an operator of the table in ops.go, named by Token.Op
	// Punctuation.
	TokenLBrace // {
	TokenRBrace // }
	TokenLParen // (
	TokenRParen // )
	TokenComma  // ,
	TokenAssign // =
)

// Keywords of the language.
var keywords = map[string]bool{
	"program": true,
	"const":   true,
	"var":     true,
	"proc":    true,
	"while":   true,
	"if":      true,
	"else":    true,
	"send":    true,
	"recv":    true,
	"bcast":   true,
	"reduce":  true,
	"chkpt":   true,
	"work":    true,
}

// Builtin identifiers readable by every process.
const (
	BuiltinRank  = "rank"  // this process's id in [0, nproc)
	BuiltinNproc = "nproc" // number of processes
	BuiltinInput = "input" // input(i): data-dependent (irregular) value
)

// Pos is a source position.
type Pos struct {
	Line int
	Col  int
}

// String renders "line:col".
func (p Pos) String() string {
	return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Col)
}

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Op   Op // the operator of a TokenOp, else none
	Text string
	Pos  Pos
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == TokenEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

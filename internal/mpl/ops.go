package mpl

// This file is MPL's operator table: how each operator is spelled, how
// tightly it binds and what it computes. The lexer reads the spellings, the
// parser and the printer the precedence; Eval, Simplify and the data-flow
// analysis's substitution read the values.

// Op is an MPL operator. The zero Op is none.
type Op uint8

// Operators. OpSub is also unary minus.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	opCount
)

// Precedence levels, lowest first: the binary operators', then a unary
// operation's and an operand's (a literal, a name or an input), which bind
// tighter than any binary operator. 0 is "not a binary operator".
const (
	precOr = iota + 1
	precAnd
	precCmp
	precAdd
	precMul
	precUnary
	precOperand
)

// ops is the table, by Op: the spelling, the binary precedence (0 for a
// unary-only operator) and whether the operator is also a prefix one.
var ops = [opCount]struct {
	text  string
	prec  int
	unary bool
}{
	OpAdd: {"+", precAdd, false},
	OpSub: {"-", precAdd, true},
	OpMul: {"*", precMul, false},
	OpDiv: {"/", precMul, false},
	OpMod: {"%", precMul, false},
	OpEq:  {"==", precCmp, false},
	OpNe:  {"!=", precCmp, false},
	OpLt:  {"<", precCmp, false},
	OpLe:  {"<=", precCmp, false},
	OpGt:  {">", precCmp, false},
	OpGe:  {">=", precCmp, false},
	OpAnd: {"&&", precAnd, false},
	OpOr:  {"||", precOr, false},
	OpNot: {"!", 0, true},
}

// opIndex finds an operator by its first byte: the one-byte operator it
// spells at [0], the two-byte one it starts at [1]. No byte starts two
// operators of one length, or the lexer could not tell them apart.
var opIndex = func() (ix [2][128]Op) {
	for op := OpAdd; op < opCount; op++ {
		t := ops[op].text
		if ix[len(t)-1][t[0]] != 0 {
			panic("mpl: two operators of one length start with " + t[:1])
		}
		ix[len(t)-1][t[0]] = op
	}
	return ix
}()

// String returns op's spelling, "" for no operator.
func (op Op) String() string { return ops[op].text }

// binaryPrec returns the precedence of binary operator op, 0 when op is
// none or only unary.
func binaryPrec(op Op) int { return ops[op].prec }

// chains reports whether a level's operators group left to right. Only
// comparisons do not: the parser reads one at most, and the printer
// parenthesizes a comparison operand of a comparison.
func chains(prec int) bool { return prec != precCmp }

// FoldBinary computes l op r. ok is false when op is no binary operator, or
// is / or % with r = 0: division by zero fails at run time, so it must not
// vanish at analysis time. Comparison and logical operators yield 0 or 1;
// here && and || see both operands, and Eval short-circuits them itself.
func FoldBinary(op Op, l, r int) (v int, ok bool) {
	switch op {
	case OpAdd:
		return l + r, true
	case OpSub:
		return l - r, true
	case OpMul:
		return l * r, true
	case OpDiv:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case OpMod:
		if r == 0 {
			return 0, false
		}
		// Euclidean-style modulo: the result is never negative, so SPMD
		// rank arithmetic like (rank-1+n)%n and (rank-1)%n agree, which
		// matches programmer intent.
		m := l % r
		if m < 0 {
			if r > 0 {
				m += r
			} else {
				m -= r
			}
		}
		return m, true
	case OpEq:
		return boolInt(l == r), true
	case OpNe:
		return boolInt(l != r), true
	case OpLt:
		return boolInt(l < r), true
	case OpLe:
		return boolInt(l <= r), true
	case OpGt:
		return boolInt(l > r), true
	case OpGe:
		return boolInt(l >= r), true
	case OpAnd:
		return boolInt(l != 0 && r != 0), true
	case OpOr:
		return boolInt(l != 0 || r != 0), true
	}
	return 0, false
}

// FoldUnary computes op x; ok is false when op is no unary operator.
func FoldUnary(op Op, x int) (v int, ok bool) {
	switch op {
	case OpSub:
		return -x, true
	case OpNot:
		return boolInt(x == 0), true
	}
	return 0, false
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

package mpl

// This file is MPL's operator table: how tightly each operator binds and
// what it computes. The parser and the printer read the precedence; Eval,
// Simplify and the data-flow analysis's substitution read the values.

// Precedence levels, lowest first: the binary operators', then a unary
// operation's and an operand's (a literal, a name or a call), which bind
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

// binaryPrec returns the precedence of binary operator op, 0 when op is
// none.
func binaryPrec(op string) int {
	switch op {
	case "||":
		return precOr
	case "&&":
		return precAnd
	case "==", "!=", "<", "<=", ">", ">=":
		return precCmp
	case "+", "-":
		return precAdd
	case "*", "/", "%":
		return precMul
	}
	return 0
}

// chains reports whether a level's operators group left to right. Only
// comparisons do not: the parser reads one at most, and the printer
// parenthesizes a comparison operand of a comparison.
func chains(prec int) bool { return prec != precCmp }

// FoldBinary computes l op r. ok is false when op is no binary operator, or
// is / or % with r = 0: division by zero fails at run time, so it must not
// vanish at analysis time. Comparison and logical operators yield 0 or 1;
// here && and || see both operands, and Eval short-circuits them itself.
func FoldBinary(op string, l, r int) (v int, ok bool) {
	switch op {
	case "+":
		return l + r, true
	case "-":
		return l - r, true
	case "*":
		return l * r, true
	case "/":
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case "%":
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
	case "==":
		return boolInt(l == r), true
	case "!=":
		return boolInt(l != r), true
	case "<":
		return boolInt(l < r), true
	case "<=":
		return boolInt(l <= r), true
	case ">":
		return boolInt(l > r), true
	case ">=":
		return boolInt(l >= r), true
	case "&&":
		return boolInt(l != 0 && r != 0), true
	case "||":
		return boolInt(l != 0 || r != 0), true
	}
	return 0, false
}

// FoldUnary computes op x; ok is false when op is no unary operator.
func FoldUnary(op string, x int) (v int, ok bool) {
	switch op {
	case "-":
		return -x, true
	case "!":
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

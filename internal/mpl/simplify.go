package mpl

// Simplify performs conservative algebraic simplification on an
// expression: constant folding and identity elimination. It never changes
// the expression's value for ANY environment — including error behavior
// (division by zero is never folded away, and subexpressions with side
// conditions are preserved). The data-flow analysis uses it to keep
// resolved rank expressions small, and the printer benefits from tidier
// output.
//
// Simplify copies on change only: when nothing folds, the input node is
// returned as-is, so results may share structure with the input. Callers
// must treat both as immutable (every caller already does — simplified
// expressions are abstract values, never program statements).
func Simplify(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntLit, *Ident:
		return e
	case *Input:
		if inner := Simplify(x.X); inner != x.X {
			return &Input{X: inner}
		}
		return x
	case *Unary:
		inner := Simplify(x.X)
		if lit, ok := inner.(*IntLit); ok {
			if v, ok := FoldUnary(x.Op, lit.Value); ok {
				return &IntLit{Value: v}
			}
		}
		// --x = x
		if x.Op == OpSub {
			if u, ok := inner.(*Unary); ok && u.Op == OpSub {
				return u.X
			}
		}
		if inner == x.X {
			return x
		}
		return &Unary{Op: x.Op, X: inner}
	case *Binary:
		l := Simplify(x.L)
		r := Simplify(x.R)
		ll, lOK := l.(*IntLit)
		rl, rOK := r.(*IntLit)

		// Full constant folding (except when it would hide a division by
		// zero — that error must survive to runtime).
		if lOK && rOK {
			if v, ok := FoldBinary(x.Op, ll.Value, rl.Value); ok {
				return &IntLit{Value: v}
			}
			if l == x.L && r == x.R {
				return x
			}
			return &Binary{Op: x.Op, L: l, R: r}
		}

		// Identity eliminations that are safe for all values of the
		// non-constant side. x*0 is not folded: x may divide by zero, and
		// that error must survive.
		switch x.Op {
		case OpAdd:
			if lOK && ll.Value == 0 {
				return r
			}
			if rOK && rl.Value == 0 {
				return l
			}
		case OpSub:
			if rOK && rl.Value == 0 {
				return l
			}
		case OpMul:
			if lOK && ll.Value == 1 {
				return r
			}
			if rOK && rl.Value == 1 {
				return l
			}
		case OpDiv:
			if rOK && rl.Value == 1 {
				return l
			}
		case OpAnd:
			// true && x = (x != 0) — not representable without changing
			// the 0/1 normalization of x; only fold the short-circuit
			// side: 0 && x = 0 (x never evaluated at runtime either).
			if lOK && ll.Value == 0 {
				return &IntLit{Value: 0}
			}
		case OpOr:
			if lOK && ll.Value != 0 {
				return &IntLit{Value: 1}
			}
		}
		if l == x.L && r == x.R {
			return x
		}
		return &Binary{Op: x.Op, L: l, R: r}
	default:
		return e
	}
}

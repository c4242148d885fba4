package mpl

import (
	"errors"
	"fmt"
)

// Env supplies the values an expression may read: process variables, program
// constants, the rank/nproc builtins, and the input builtin's data.
type Env struct {
	Rank  int
	Nproc int
	// Vars holds the mutable process variables. Undeclared reads are an
	// evaluation error; the checker prevents them for parsed programs.
	Vars map[string]int
	// Consts holds program constants, only read: environments may share it.
	Consts map[string]int
	// Input returns process input data for index i. A nil Input makes any
	// input(...) call an evaluation error.
	Input func(i int) int
}

// NewEnv builds an evaluation environment for one process of a program,
// with all declared variables initialized to zero.
func NewEnv(p *Program, rank, nproc int, input func(int) int) *Env {
	env := &Env{
		Rank:   rank,
		Nproc:  nproc,
		Vars:   make(map[string]int, len(p.Vars)),
		Consts: make(map[string]int, len(p.Consts)),
		Input:  input,
	}
	for _, v := range p.Vars {
		env.Vars[v] = 0
	}
	for _, c := range p.Consts {
		env.Consts[c.Name] = c.Value
	}
	return env
}

// EvalError reports a runtime evaluation failure (division by zero, missing
// input data, unknown identifier).
type EvalError struct {
	Msg string
}

// Error implements error.
func (e *EvalError) Error() string { return "mpl: eval: " + e.Msg }

// ErrDivideByZero is wrapped by division/modulo-by-zero errors.
var ErrDivideByZero = errors.New("division by zero")

// Eval evaluates an expression in the environment. Comparison and logical
// operators yield 0 or 1; && and || short-circuit.
func Eval(e Expr, env *Env) (int, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Value, nil
	case *Ident:
		switch x.Name {
		case BuiltinRank:
			return env.Rank, nil
		case BuiltinNproc:
			return env.Nproc, nil
		}
		if v, ok := env.Vars[x.Name]; ok {
			return v, nil
		}
		if v, ok := env.Consts[x.Name]; ok {
			return v, nil
		}
		return 0, &EvalError{Msg: fmt.Sprintf("unknown identifier %q", x.Name)}
	case *Call:
		if x.Name != BuiltinInput {
			return 0, &EvalError{Msg: fmt.Sprintf("unknown builtin %q", x.Name)}
		}
		if len(x.Args) != 1 {
			return 0, &EvalError{Msg: fmt.Sprintf("input takes 1 argument, got %d", len(x.Args))}
		}
		if env.Input == nil {
			return 0, &EvalError{Msg: "no input data bound"}
		}
		i, err := Eval(x.Args[0], env)
		if err != nil {
			return 0, err
		}
		return env.Input(i), nil
	case *Unary:
		v, err := Eval(x.X, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		default:
			return 0, &EvalError{Msg: fmt.Sprintf("unknown unary operator %q", x.Op)}
		}
	case *Binary:
		l, err := Eval(x.L, env)
		if err != nil {
			return 0, err
		}
		// Short-circuit logical operators.
		switch x.Op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := Eval(x.R, env)
			if err != nil {
				return 0, err
			}
			return boolInt(r != 0), nil
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := Eval(x.R, env)
			if err != nil {
				return 0, err
			}
			return boolInt(r != 0), nil
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, &EvalError{Msg: fmt.Sprintf("%s: %s", ErrDivideByZero, ExprString(e))}
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, &EvalError{Msg: fmt.Sprintf("%s: %s", ErrDivideByZero, ExprString(e))}
			}
			// Euclidean-style modulo: the result has the sign of the
			// divisor's magnitude, i.e. always non-negative for positive
			// divisors. SPMD rank arithmetic like (rank-1+n)%n and
			// (rank-1)%n then agree, which matches programmer intent.
			m := l % r
			if m < 0 {
				if r > 0 {
					m += r
				} else {
					m -= r
				}
			}
			return m, nil
		case "==":
			return boolInt(l == r), nil
		case "!=":
			return boolInt(l != r), nil
		case "<":
			return boolInt(l < r), nil
		case "<=":
			return boolInt(l <= r), nil
		case ">":
			return boolInt(l > r), nil
		case ">=":
			return boolInt(l >= r), nil
		default:
			return 0, &EvalError{Msg: fmt.Sprintf("unknown binary operator %q", x.Op)}
		}
	default:
		return 0, &EvalError{Msg: fmt.Sprintf("unknown expression node %T", e)}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Truthy evaluates a condition expression: nonzero means true.
func Truthy(e Expr, env *Env) (bool, error) {
	v, err := Eval(e, env)
	return v != 0, err
}

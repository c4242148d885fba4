package mpl

import (
	"strconv"
	"strings"
)

// Format renders a program back to MPL source. Parsing the output yields a
// structurally identical program (statement IDs are reassigned in source
// order). The checkpoint placement phase uses Format to emit the
// transformed program.
//
// The program is walked twice, first only to measure: the output is built
// in one exactly-sized buffer, and no expression or number is rendered to a
// string of its own on the way.
func Format(p *Program) string {
	pr := printer{measuring: true}
	pr.program(p)
	pr.sb.Grow(pr.size)
	pr.measuring = false
	pr.program(p)
	return pr.sb.String()
}

// printer is the output of Format and ExprString: a builder, or — while
// measuring — only the number of bytes it would have been given.
type printer struct {
	sb        strings.Builder
	measuring bool
	size      int
}

func (pr *printer) str(s string) {
	if pr.measuring {
		pr.size += len(s)
		return
	}
	pr.sb.WriteString(s)
}

func (pr *printer) int(v int) {
	var digits [20]byte // room for any int64
	b := strconv.AppendInt(digits[:0], int64(v), 10)
	if pr.measuring {
		pr.size += len(b)
		return
	}
	pr.sb.Write(b)
}

func (pr *printer) program(p *Program) {
	pr.str("program ")
	pr.str(p.Name)
	pr.str("\n")
	if len(p.Consts) > 0 {
		pr.str("\n")
		for _, c := range p.Consts {
			pr.str("const ")
			pr.str(c.Name)
			pr.str(" = ")
			pr.int(c.Value)
			pr.str("\n")
		}
	}
	if len(p.Vars) > 0 {
		pr.str("\nvar ")
		for i, v := range p.Vars {
			if i > 0 {
				pr.str(", ")
			}
			pr.str(v)
		}
		pr.str("\n")
	}
	pr.str("\nproc {\n")
	pr.body(p.Body, 1)
	pr.str("}\n")
}

func (pr *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		pr.str("    ")
	}
}

func (pr *printer) body(body []Stmt, depth int) {
	for _, s := range body {
		pr.stmt(s, depth)
	}
}

// message prints "<op>(<peer>, <buf>)", the shape of all four
// communication statements.
func (pr *printer) message(op string, peer Expr, buf string) {
	pr.str(op)
	pr.expr(peer, 0)
	pr.str(", ")
	pr.str(buf)
	pr.str(")\n")
}

func (pr *printer) stmt(s Stmt, depth int) {
	pr.indent(depth)
	switch st := s.(type) {
	case *Assign:
		pr.str(st.Name)
		pr.str(" = ")
		pr.expr(st.X, 0)
		pr.str("\n")
	case *Work:
		pr.str("work(")
		pr.expr(st.Amount, 0)
		pr.str(")\n")
	case *Send:
		pr.message("send(", st.Dest, st.Var)
	case *Recv:
		pr.message("recv(", st.Src, st.Var)
	case *Bcast:
		pr.message("bcast(", st.Root, st.Var)
	case *Reduce:
		pr.message("reduce(", st.Root, st.Var)
	case *Chkpt:
		pr.str("chkpt\n")
	case *While:
		pr.str("while ")
		pr.expr(st.Cond, 0)
		pr.str(" {\n")
		pr.body(st.Body, depth+1)
		pr.indent(depth)
		pr.str("}\n")
	case *If:
		pr.str("if ")
		pr.expr(st.Cond, 0)
		pr.str(" {\n")
		pr.body(st.Then, depth+1)
		pr.indent(depth)
		if len(st.Else) > 0 {
			pr.str("} else {\n")
			pr.body(st.Else, depth+1)
			pr.indent(depth)
		}
		pr.str("}\n")
	}
}

// precedence levels for minimal parenthesization.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "||":
			return 1
		case "&&":
			return 2
		case "==", "!=", "<", "<=", ">", ">=":
			return 3
		case "+", "-":
			return 4
		default: // * / %
			return 5
		}
	case *Unary:
		return 6
	default:
		return 7
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var pr printer
	pr.expr(e, 0)
	return pr.sb.String()
}

func (pr *printer) expr(e Expr, parentPrec int) {
	prec := exprPrec(e)
	needParens := prec < parentPrec
	if needParens {
		pr.str("(")
	}
	switch x := e.(type) {
	case *IntLit:
		pr.int(x.Value)
	case *Ident:
		pr.str(x.Name)
	case *Call:
		pr.str(x.Name)
		pr.str("(")
		for i, a := range x.Args {
			if i > 0 {
				pr.str(", ")
			}
			pr.expr(a, 0)
		}
		pr.str(")")
	case *Unary:
		pr.str(x.Op)
		pr.expr(x.X, prec)
	case *Binary:
		// Left associative: the right child needs strictly higher precedence
		// to avoid parens.
		pr.expr(x.L, prec)
		pr.str(" ")
		pr.str(x.Op)
		pr.str(" ")
		pr.expr(x.R, prec+1)
	}
	if needParens {
		pr.str(")")
	}
}

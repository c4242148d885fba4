package mpl

import (
	"errors"
	"fmt"
	"sort"
)

// CheckError reports a semantic error in a program.
type CheckError struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *CheckError) Error() string {
	return fmt.Sprintf("mpl: %s: %s", e.Pos, e.Msg)
}

// builtinFunc is the kind Check declares input, MPL's one builtin function,
// as: a name no declaration may take and no expression may read bare.
const builtinFunc = "builtin function"

// checker carries Check's state. Methods instead of closures: Check runs
// at every pipeline entry, and the per-call escaping closures (plus
// unsized map growth) were measurable in the transform benchmark.
type checker struct {
	declared map[string]string
	ids      []int // statement ids in walk order; dup check sorts at the end
	errs     []error
}

func (c *checker) expr(pos Pos, e Expr) {
	switch n := e.(type) {
	case *Ident:
		switch kind, ok := c.declared[n.Name]; {
		case !ok:
			c.errs = append(c.errs, &CheckError{Pos: pos, Msg: fmt.Sprintf("undeclared identifier %q", n.Name)})
		case kind == builtinFunc:
			c.errs = append(c.errs, &CheckError{Pos: pos, Msg: fmt.Sprintf("%q is a %s: call it as %s(i)", n.Name, kind, n.Name)})
		}
	case *Input:
		c.expr(pos, n.X)
	case *Unary:
		c.expr(pos, n.X)
	case *Binary:
		c.expr(pos, n.L)
		c.expr(pos, n.R)
	}
}

func (c *checker) mustBeVar(pos Pos, name, role string) {
	kind, ok := c.declared[name]
	switch {
	case !ok:
		c.errs = append(c.errs, &CheckError{Pos: pos, Msg: fmt.Sprintf("undeclared identifier %q", name)})
	case kind != "variable":
		c.errs = append(c.errs, &CheckError{Pos: pos, Msg: fmt.Sprintf("%s must be a variable, %q is a %s", role, name, kind)})
	}
}

func (c *checker) stmt(s Stmt) bool {
	c.ids = append(c.ids, s.ID())
	switch st := s.(type) {
	case *Assign:
		c.mustBeVar(st.Pos(), st.Name, "assignment target")
		c.expr(st.Pos(), st.X)
	case *Work:
		c.expr(st.Pos(), st.Amount)
	case *Send:
		c.expr(st.Pos(), st.Dest)
		c.mustBeVar(st.Pos(), st.Var, "send buffer")
	case *Recv:
		c.expr(st.Pos(), st.Src)
		c.mustBeVar(st.Pos(), st.Var, "receive buffer")
	case *Bcast:
		c.expr(st.Pos(), st.Root)
		c.mustBeVar(st.Pos(), st.Var, "broadcast buffer")
	case *Reduce:
		c.expr(st.Pos(), st.Root)
		c.mustBeVar(st.Pos(), st.Var, "reduce buffer")
	case *While:
		c.expr(st.Pos(), st.Cond)
	case *If:
		c.expr(st.Pos(), st.Cond)
	}
	return true
}

// Check validates a program's static semantics:
//   - every referenced identifier is a declared variable, constant, or
//     builtin;
//   - the builtins rank/nproc and declared constants are never assigned or
//     used as message buffers, and the builtin function input is only
//     called;
//   - no name is declared twice (across vars, consts, and builtins);
//   - statement IDs are unique.
func Check(p *Program) error {
	c := &checker{
		declared: make(map[string]string, len(p.Consts)+len(p.Vars)+2),
		ids:      make([]int, 0, p.StmtCount()),
	}
	c.declared[BuiltinRank] = "builtin"
	c.declared[BuiltinNproc] = "builtin"
	c.declared[BuiltinInput] = builtinFunc
	for _, cst := range p.Consts {
		if kind, ok := c.declared[cst.Name]; ok {
			c.errs = append(c.errs, &CheckError{Msg: fmt.Sprintf("constant %q redeclares %s", cst.Name, kind)})
			continue
		}
		c.declared[cst.Name] = "constant"
	}
	for _, v := range p.Vars {
		if kind, ok := c.declared[v]; ok {
			c.errs = append(c.errs, &CheckError{Msg: fmt.Sprintf("variable %q redeclares %s", v, kind)})
			continue
		}
		c.declared[v] = "variable"
	}
	Walk(p.Body, c.stmt)
	// Duplicate statement ids: sort-and-scan beats a per-statement set (a
	// map was two allocations and growth on every Check).
	sort.Ints(c.ids)
	for i := 1; i < len(c.ids); i++ {
		if c.ids[i] == c.ids[i-1] && (i == 1 || c.ids[i] != c.ids[i-2]) {
			c.errs = append(c.errs, &CheckError{Msg: fmt.Sprintf("duplicate statement id %d", c.ids[i])})
		}
	}
	return errors.Join(c.errs...)
}

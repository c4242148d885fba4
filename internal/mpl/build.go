package mpl

import "slices"

// This file provides the programmatic construction API used by examples,
// tests, and the transformation phases: expression helpers, a statement
// Builder, and cloning.

// Int returns an integer literal expression.
func Int(v int) Expr { return &IntLit{Value: v} }

// V returns an identifier expression.
func V(name string) Expr { return &Ident{Name: name} }

// Rank returns the rank builtin.
func Rank() Expr { return &Ident{Name: BuiltinRank} }

// Nproc returns the nproc builtin.
func Nproc() Expr { return &Ident{Name: BuiltinNproc} }

// InputAt returns input(i), an irregular (data-dependent) expression.
func InputAt(i Expr) Expr { return &Call{Name: BuiltinInput, Args: []Expr{i}} }

// Binary expression helpers.

// Add returns l + r.
func Add(l, r Expr) Expr { return &Binary{Op: "+", L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &Binary{Op: "-", L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &Binary{Op: "*", L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return &Binary{Op: "/", L: l, R: r} }

// Mod returns l % r.
func Mod(l, r Expr) Expr { return &Binary{Op: "%", L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return &Binary{Op: "==", L: l, R: r} }

// Neq returns l != r.
func Neq(l, r Expr) Expr { return &Binary{Op: "!=", L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return &Binary{Op: "<", L: l, R: r} }

// Builder accumulates a program body with automatically assigned statement
// IDs. Obtain one from NewBuilder, add declarations and statements, and
// call Program to finish (which also runs Check).
type Builder struct {
	prog   *Program
	nextID int
	// target is the statement list under construction (nesting pushes).
	target *[]Stmt
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	b := &Builder{prog: &Program{Name: name}}
	b.target = &b.prog.Body
	return b
}

// Const declares a constant.
func (b *Builder) Const(name string, value int) *Builder {
	b.prog.Consts = append(b.prog.Consts, Const{Name: name, Value: value})
	return b
}

// Vars declares variables.
func (b *Builder) Vars(names ...string) *Builder {
	b.prog.Vars = append(b.prog.Vars, names...)
	return b
}

func (b *Builder) base() StmtBase {
	id := b.nextID
	b.nextID++
	return StmtBase{StmtID: id}
}

func (b *Builder) push(s Stmt) *Builder {
	*b.target = append(*b.target, s)
	return b
}

// Assign appends "name = x".
func (b *Builder) Assign(name string, x Expr) *Builder {
	return b.push(&Assign{StmtBase: b.base(), Name: name, X: x})
}

// Work appends "work(amount)".
func (b *Builder) Work(amount Expr) *Builder {
	return b.push(&Work{StmtBase: b.base(), Amount: amount})
}

// Send appends "send(dest, varName)".
func (b *Builder) Send(dest Expr, varName string) *Builder {
	return b.push(&Send{StmtBase: b.base(), Dest: dest, Var: varName})
}

// Recv appends "recv(src, varName)".
func (b *Builder) Recv(src Expr, varName string) *Builder {
	return b.push(&Recv{StmtBase: b.base(), Src: src, Var: varName})
}

// Bcast appends "bcast(root, varName)".
func (b *Builder) Bcast(root Expr, varName string) *Builder {
	return b.push(&Bcast{StmtBase: b.base(), Root: root, Var: varName})
}

// Reduce appends "reduce(root, varName)".
func (b *Builder) Reduce(root Expr, varName string) *Builder {
	return b.push(&Reduce{StmtBase: b.base(), Root: root, Var: varName})
}

// Chkpt appends a checkpoint statement.
func (b *Builder) Chkpt() *Builder {
	return b.push(&Chkpt{StmtBase: b.base()})
}

// While appends "while cond { ... }", building the body via fn.
func (b *Builder) While(cond Expr, fn func(*Builder)) *Builder {
	w := &While{StmtBase: b.base(), Cond: cond}
	b.nested(&w.Body, fn)
	return b.push(w)
}

// If appends "if cond { then }" with no else branch.
func (b *Builder) If(cond Expr, then func(*Builder)) *Builder {
	s := &If{StmtBase: b.base(), Cond: cond}
	b.nested(&s.Then, then)
	return b.push(s)
}

// IfElse appends "if cond { then } else { els }".
func (b *Builder) IfElse(cond Expr, then, els func(*Builder)) *Builder {
	s := &If{StmtBase: b.base(), Cond: cond}
	b.nested(&s.Then, then)
	b.nested(&s.Else, els)
	return b.push(s)
}

func (b *Builder) nested(list *[]Stmt, fn func(*Builder)) {
	saved := b.target
	b.target = list
	fn(b)
	b.target = saved
}

// Program finishes construction, validates the program, and returns it.
func (b *Builder) Program() (*Program, error) {
	if err := Check(b.prog); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustProgram is Program for static program literals in examples and tests;
// it panics on semantic errors, which there indicate a programming bug.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

// Clone returns a copy of the program's statements and blocks, sharing its
// expressions. Statement IDs are preserved. Statements and blocks of the
// clone are its own: inserting, moving or deleting statements, or pointing
// a field of a cloned statement at another expression, never reaches the
// original. Expression nodes are immutable — no code writes a field of
// one after it is built — so original and clone read the same nodes.
//
// The copy is slab-allocated: a counting pre-pass sizes one typed slab per
// concrete statement type, so cloning costs one allocation per statement
// TYPE (plus the body backing array) instead of one per statement — the
// difference between ~constant and ~program-sized allocation counts in
// Phase III, which clones per Transform.
func Clone(p *Program) *Program {
	var n nodeCount
	n.body(p.Body)
	m := nodeMem{
		assigns: make([]Assign, 0, n.assigns),
		works:   make([]Work, 0, n.works),
		sends:   make([]Send, 0, n.sends),
		recvs:   make([]Recv, 0, n.recvs),
		bcasts:  make([]Bcast, 0, n.bcasts),
		reduces: make([]Reduce, 0, n.reduces),
		chkpts:  make([]Chkpt, 0, n.chkpts),
		whiles:  make([]While, 0, n.whiles),
		ifs:     make([]If, 0, n.ifs),
		stmts:   make([]Stmt, 0, n.stmtSlots),
	}
	return &Program{
		Name:   p.Name,
		Consts: append([]Const(nil), p.Consts...),
		Vars:   append([]string(nil), p.Vars...),
		Body:   m.cloneBody(p.Body),
		Quiet:  slices.Clone(p.Quiet),
	}
}

// nodeMem is the memory a program's AST lives in: one chunk per concrete
// node type, plus the chunks block bodies and call arguments are cut from.
// Clone sizes the statement chunks exactly with a counting pass (it shares
// expressions, so it leaves the others empty); the parser cannot know the
// counts and lets cut grow them. Either way a chunk is append-only
// and never regrown — a full one is replaced by a fresh one — so a node
// pointer or body slice handed out stays valid for as long as anything
// refers to it, and nothing needs to say when a program is done with.
type nodeMem struct {
	assigns  []Assign
	works    []Work
	sends    []Send
	recvs    []Recv
	bcasts   []Bcast
	reduces  []Reduce
	chkpts   []Chkpt
	whiles   []While
	ifs      []If
	intLits  []IntLit
	idents   []Ident
	calls    []Call
	unaries  []Unary
	binaries []Binary
	stmts    []Stmt // block bodies
	exprs    []Expr // call arguments
}

// Chunk sizes when cut has to grow one: small programs pay for a handful
// of nodes per type, large ones settle at a chunk per maxChunk nodes.
const (
	firstChunk = 4
	maxChunk   = 256
)

// cut returns n zeroed elements from the end of *chunk, replacing the chunk
// by a fresh one of double the capacity when they do not fit. The result's
// capacity is its length, so appending to it reallocates instead of
// bleeding into whatever is cut next (a sibling block, say).
func cut[T any](chunk *[]T, n int) []T {
	if cap(*chunk)-len(*chunk) < n {
		size := min(max(2*cap(*chunk), firstChunk), maxChunk)
		*chunk = make([]T, 0, max(size, n))
	}
	off := len(*chunk)
	*chunk = (*chunk)[:off+n]
	return (*chunk)[off : off+n : off+n]
}

// newNode places v in *chunk and returns its address.
func newNode[T any](chunk *[]T, v T) *T {
	p := &cut(chunk, 1)[0]
	*p = v
	return p
}

// nodeCount is Clone's counting pass: how many statements of each type, and
// how many body slots, a program has.
type nodeCount struct {
	assigns, works, sends, recvs, bcasts, reduces, chkpts, whiles, ifs int
	stmtSlots                                                          int
}

func (n *nodeCount) body(body []Stmt) {
	n.stmtSlots += len(body)
	for _, s := range body {
		switch st := s.(type) {
		case *Assign:
			n.assigns++
		case *Work:
			n.works++
		case *Send:
			n.sends++
		case *Recv:
			n.recvs++
		case *Bcast:
			n.bcasts++
		case *Reduce:
			n.reduces++
		case *Chkpt:
			n.chkpts++
		case *While:
			n.whiles++
			n.body(st.Body)
		case *If:
			n.ifs++
			n.body(st.Then)
			n.body(st.Else)
		default:
			panic("mpl: Clone: unknown statement type")
		}
	}
}

func (m *nodeMem) cloneBody(body []Stmt) []Stmt {
	if body == nil {
		return nil
	}
	out := cut(&m.stmts, len(body))
	for i, s := range body {
		out[i] = m.cloneStmt(s)
	}
	return out
}

func (m *nodeMem) cloneStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *Assign:
		return newNode(&m.assigns, *st)
	case *Work:
		return newNode(&m.works, *st)
	case *Send:
		return newNode(&m.sends, *st)
	case *Recv:
		return newNode(&m.recvs, *st)
	case *Bcast:
		return newNode(&m.bcasts, *st)
	case *Reduce:
		return newNode(&m.reduces, *st)
	case *Chkpt:
		return newNode(&m.chkpts, *st)
	case *While:
		return newNode(&m.whiles, While{StmtBase: st.StmtBase, Cond: st.Cond, Body: m.cloneBody(st.Body)})
	case *If:
		return newNode(&m.ifs, If{StmtBase: st.StmtBase, Cond: st.Cond, Then: m.cloneBody(st.Then), Else: m.cloneBody(st.Else)})
	default:
		panic("mpl: Clone: unknown statement type")
	}
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntLit:
		return &IntLit{Value: x.Value}
	case *Ident:
		return &Ident{Name: x.Name}
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a)
		}
		return &Call{Name: x.Name, Args: args}
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X)}
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	default:
		panic("mpl: CloneExpr: unknown expression type")
	}
}

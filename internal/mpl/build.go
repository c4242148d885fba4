package mpl

import "slices"

// This file provides the programmatic construction API used by examples,
// tests, and the transformation phases: expression helpers, a statement
// Builder, Clone and Renumber.

// Int returns an integer literal expression.
func Int(v int) Expr { return &IntLit{Value: v} }

// V returns an identifier expression.
func V(name string) Expr { return &Ident{Name: name} }

// Rank returns the rank builtin.
func Rank() Expr { return &Ident{Name: BuiltinRank} }

// Nproc returns the nproc builtin.
func Nproc() Expr { return &Ident{Name: BuiltinNproc} }

// InputAt returns input(i), an irregular (data-dependent) expression.
func InputAt(i Expr) Expr { return &Input{X: i} }

// Binary expression helpers.

// Add returns l + r.
func Add(l, r Expr) Expr { return &Binary{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &Binary{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &Binary{Op: OpMul, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return &Binary{Op: OpDiv, L: l, R: r} }

// Mod returns l % r.
func Mod(l, r Expr) Expr { return &Binary{Op: OpMod, L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return &Binary{Op: OpEq, L: l, R: r} }

// Neq returns l != r.
func Neq(l, r Expr) Expr { return &Binary{Op: OpNe, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return &Binary{Op: OpLt, L: l, R: r} }

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

// Clone returns a new Program with the original's name, its own copies of
// Consts, Vars and Quiet, and the original's Body. Statements and blocks
// are immutable once built, as expressions are, so the two share them: an
// Edit of the clone copies what it changes (path copying) and leaves the
// original as it was.
func Clone(p *Program) *Program {
	return &Program{
		Name:   p.Name,
		Consts: append([]Const(nil), p.Consts...),
		Vars:   append([]string(nil), p.Vars...),
		Body:   p.Body,
		Quiet:  slices.Clone(p.Quiet),
	}
}

// Renumber returns a copy of body whose statements are new nodes, numbered
// from *next on in walk order, with the originals' expressions and
// positions; *next ends one past the last id it gave. It is how a
// statement is copied under a new id: an MPMD merge renumbers each role, a
// skew mutant copies two statements into a second branch.
func Renumber(body []Stmt, next *int) []Stmt {
	if body == nil {
		return nil
	}
	out := make([]Stmt, len(body))
	for i, s := range body {
		b := StmtBase{StmtID: *next, SrcPos: s.Pos()}
		*next++
		switch st := s.(type) {
		case *Assign:
			out[i] = &Assign{StmtBase: b, Name: st.Name, X: st.X}
		case *Work:
			out[i] = &Work{StmtBase: b, Amount: st.Amount}
		case *Send:
			out[i] = &Send{StmtBase: b, Dest: st.Dest, Var: st.Var}
		case *Recv:
			out[i] = &Recv{StmtBase: b, Src: st.Src, Var: st.Var}
		case *Bcast:
			out[i] = &Bcast{StmtBase: b, Root: st.Root, Var: st.Var}
		case *Reduce:
			out[i] = &Reduce{StmtBase: b, Root: st.Root, Var: st.Var}
		case *Chkpt:
			out[i] = &Chkpt{StmtBase: b}
		case *While:
			out[i] = &While{StmtBase: b, Cond: st.Cond, Body: Renumber(st.Body, next)}
		case *If:
			then := Renumber(st.Then, next)
			out[i] = &If{StmtBase: b, Cond: st.Cond, Then: then, Else: Renumber(st.Else, next)}
		}
	}
	return out
}

// nodeMem is the memory a parsed program's AST lives in: one chunk per
// concrete node type, plus the chunk block bodies are cut from. The parser
// cannot know the counts ahead and lets cut grow them. A chunk is
// append-only and never regrown — a full one is replaced by a fresh one —
// so a node pointer or body slice handed out stays valid for as long as
// anything refers to it, and nothing needs to say when a program is done
// with.
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
	inputs   []Input
	unaries  []Unary
	binaries []Binary
	stmts    []Stmt // block bodies
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

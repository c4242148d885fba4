package mpl

import "fmt"

// Program is a parsed MPL program: constant and variable declarations plus
// the proc body every process executes.
type Program struct {
	Name   string
	Consts []Const
	Vars   []string
	Body   []Stmt
	// Quiet holds the channels core.Transform proved empty at every
	// straight cut: no recovery line the paper's scheme picks has one of
	// their messages in flight, so the runtime writes no send-log record
	// for them. Format does not print it; a program that did not come out
	// of Transform has none, and every send is logged.
	Quiet ChannelSet
}

// ChannelSet is a set of channels from→to of a run of n processes, one bit
// each: n's n² bits follow those of every smaller count, from-major. Bits
// past its end are clear.
type ChannelSet []uint64

func channelBit(n, from, to int) int { return (n-1)*n*(2*n-1)/6 + from*n + to }

// NewChannelSet returns an empty set with room for every channel of up to
// maxN processes: adding one of those allocates nothing.
func NewChannelSet(maxN int) ChannelSet {
	return make(ChannelSet, 0, (channelBit(maxN+1, 0, 0)+63)/64)
}

// Has reports whether the set holds channel from→to at n processes.
func (s ChannelSet) Has(n, from, to int) bool {
	if from < 0 || from >= n || to < 0 || to >= n {
		return false
	}
	i := channelBit(n, from, to)
	return i/64 < len(s) && s[i/64]&(1<<(i%64)) != 0
}

// Add puts channel from→to at n processes into the set, growing it to the
// word that holds it. It panics on a rank outside [0, n).
func (s *ChannelSet) Add(n, from, to int) {
	if from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("mpl: channel %d->%d of %d processes", from, to, n))
	}
	i := channelBit(n, from, to)
	for len(*s) <= i/64 {
		*s = append(*s, 0)
	}
	(*s)[i/64] |= 1 << (i % 64)
}

// Row returns the channels from→to the set holds at n processes, bit to
// set for each; 0 when n exceeds 64.
func (s ChannelSet) Row(n, from int) uint64 {
	var row uint64
	for to := 0; to < n && n <= 64; to++ {
		if s.Has(n, from, to) {
			row |= 1 << to
		}
	}
	return row
}

// Const is a named compile-time integer constant.
type Const struct {
	Name  string
	Value int
}

// Stmt is a program statement. Every statement carries a unique ID assigned
// at parse (or build) time; the transformation phases address statements by
// ID when moving checkpoints, and the runtime uses IDs as resume labels.
type Stmt interface {
	stmtNode()
	// ID returns the statement's unique id within its program.
	ID() int
	// Pos returns the source position ({0,0} for built programs).
	Pos() Pos
}

// StmtBase carries the fields shared by all statements. It is exported so
// the builder API in build.go can construct statements, but programs should
// normally be built via Build* helpers or the parser.
type StmtBase struct {
	StmtID int
	SrcPos Pos
}

// ID implements Stmt.
func (b *StmtBase) ID() int { return b.StmtID }

// Pos implements Stmt.
func (b *StmtBase) Pos() Pos { return b.SrcPos }

// Assign is "name = expr", a computation event.
type Assign struct {
	StmtBase
	Name string
	X    Expr
}

// Work is "work(expr)", a pure computation burning the given abstract cost.
type Work struct {
	StmtBase
	Amount Expr
}

// Send is "send(dest, var)". Sends to a destination outside [0, nproc) are
// no-ops (guarded-boundary semantics), which lets ring and stencil codes
// omit explicit edge guards just like the paper's Jacobi example.
type Send struct {
	StmtBase
	Dest Expr
	Var  string
}

// Recv is "recv(src, var)", blocking. Receives from a source outside
// [0, nproc) are no-ops that leave var unchanged.
type Recv struct {
	StmtBase
	Src Expr
	Var string
}

// Bcast is "bcast(root, var)", a collective: the root's value of var is
// delivered to every process. It reduces to point-to-point sends/receives
// (§3.2's observation that collectives reduce to send/recv statements).
type Bcast struct {
	StmtBase
	Root Expr
	Var  string
}

// Reduce is "reduce(root, var)", a collective: the sum of var across all
// processes is delivered to the root's var; other processes keep their
// value. Like bcast it reduces to point-to-point sends/receives (§3.2).
type Reduce struct {
	StmtBase
	Root Expr
	Var  string
}

// Chkpt is the checkpoint statement.
type Chkpt struct {
	StmtBase
}

// While is "while cond { body }".
type While struct {
	StmtBase
	Cond Expr
	Body []Stmt
}

// If is "if cond { then } else { else }"; Else may be empty.
type If struct {
	StmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*Assign) stmtNode() {}
func (*Work) stmtNode()   {}
func (*Send) stmtNode()   {}
func (*Recv) stmtNode()   {}
func (*Bcast) stmtNode()  {}
func (*Reduce) stmtNode() {}
func (*Chkpt) stmtNode()  {}
func (*While) stmtNode()  {}
func (*If) stmtNode()     {}

// Expr is an integer expression. Comparison and logical operators yield
// 0/1; conditions treat any nonzero value as true. An expression node is
// immutable once built: programs, their clones and the analyses share
// nodes, so a rewrite builds a new node instead of writing a field.
type Expr interface {
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	Value int
}

// Ident references a variable, constant, or builtin (rank, nproc).
type Ident struct {
	Name string
}

// Call is a builtin call; the only builtin is input(i), whose value is
// process input data — the paper's "irregular computation pattern".
type Call struct {
	Name string
	Args []Expr
}

// Unary is -x or !x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operation.
type Binary struct {
	Op   string
	L, R Expr
}

func (*IntLit) exprNode() {}
func (*Ident) exprNode()  {}
func (*Call) exprNode()   {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}

// Walk visits every statement in the body (pre-order, including nested
// bodies) until fn returns false.
func Walk(body []Stmt, fn func(Stmt) bool) bool {
	for _, s := range body {
		if !fn(s) {
			return false
		}
		switch st := s.(type) {
		case *While:
			if !Walk(st.Body, fn) {
				return false
			}
		case *If:
			if !Walk(st.Then, fn) {
				return false
			}
			if !Walk(st.Else, fn) {
				return false
			}
		}
	}
	return true
}

// WalkExpr visits e and all subexpressions pre-order until fn returns false.
func WalkExpr(e Expr, fn func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !fn(e) {
		return false
	}
	switch x := e.(type) {
	case *Unary:
		return WalkExpr(x.X, fn)
	case *Binary:
		return WalkExpr(x.L, fn) && WalkExpr(x.R, fn)
	case *Call:
		for _, a := range x.Args {
			if !WalkExpr(a, fn) {
				return false
			}
		}
	}
	return true
}

// EqualExpr reports whether a and b are the same expression: the same node,
// or trees of the same shape, operators, names and literal values.
func EqualExpr(a, b Expr) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *IntLit:
		y, ok := b.(*IntLit)
		return ok && x.Value == y.Value
	case *Ident:
		y, ok := b.(*Ident)
		return ok && x.Name == y.Name
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	default:
		return false
	}
}

// MaxStmtID returns the largest statement id in the program, or -1 when the
// body is empty. New statements added by transformations must use larger
// ids.
func (p *Program) MaxStmtID() int {
	maxID := -1
	Walk(p.Body, func(s Stmt) bool {
		if s.ID() > maxID {
			maxID = s.ID()
		}
		return true
	})
	return maxID
}

// StmtCount returns the number of statements in the program.
func (p *Program) StmtCount() int {
	n := 0
	Walk(p.Body, func(Stmt) bool { n++; return true })
	return n
}

// DescribeStmt names a statement for diagnostics and CFG node labels.
func DescribeStmt(s Stmt) string {
	switch st := s.(type) {
	case *Assign:
		return fmt.Sprintf("assign %s (#%d)", st.Name, st.ID())
	case *Work:
		return fmt.Sprintf("work (#%d)", st.ID())
	case *Send:
		return fmt.Sprintf("send->%s (#%d)", ExprString(st.Dest), st.ID())
	case *Recv:
		return fmt.Sprintf("recv<-%s (#%d)", ExprString(st.Src), st.ID())
	case *Bcast:
		return fmt.Sprintf("bcast root=%s (#%d)", ExprString(st.Root), st.ID())
	case *Reduce:
		return fmt.Sprintf("reduce root=%s (#%d)", ExprString(st.Root), st.ID())
	case *Chkpt:
		return fmt.Sprintf("chkpt (#%d)", st.ID())
	case *While:
		return fmt.Sprintf("while %s (#%d)", ExprString(st.Cond), st.ID())
	case *If:
		return fmt.Sprintf("if %s (#%d)", ExprString(st.Cond), st.ID())
	default:
		return fmt.Sprintf("stmt (#%d)", s.ID())
	}
}

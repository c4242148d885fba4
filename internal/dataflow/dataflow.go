// Package dataflow performs the rank data-flow analysis of the paper's
// §3.2: "we first determine the variables and constants that depend on
// process IDs, and then use the technique of data flow analysis to
// determine whether each condition expression is ID-dependent or not."
//
// The analysis is a forward abstract interpretation over the structured MPL
// AST. Each variable's abstract value is either a closed symbolic
// expression over (rank, nproc) — meaning the variable's concrete value is
// that expression for every execution — or unknown (⊤). Values received in
// messages, read from input data, or merged inconsistently at joins are ⊤.
// From the fixpoint the analysis derives, per communication statement, the
// resolved destination/source parameter (a closed expression, or the
// wildcard for the paper's irregular patterns), and per branch statement
// whether its condition is ID-dependent together with the resolved
// condition, and whether it has one value on every process.
package dataflow

import (
	"repro/internal/attr"
	"repro/internal/mpl"
)

// BranchInfo describes one branch (if/while) statement.
type BranchInfo struct {
	// Resolved is the condition as a closed expression over (rank, nproc);
	// nil when the condition is not statically resolvable.
	Resolved mpl.Expr
	// IDDependent reports whether the condition is resolvable and actually
	// mentions rank — the paper's ID-dependent branches. Only these
	// contribute path attributes.
	IDDependent bool
	// Uniform reports whether the condition has one value on every
	// process: it reads no rank, no input and no variable that is
	// received into, or assigned from such a value or under such a
	// condition. A uniform loop runs equally often on every process.
	Uniform bool
}

// Result holds the analysis outcome.
type Result struct {
	// Params maps send/recv/bcast statement ids to their resolved
	// destination/source/root parameter.
	Params map[int]attr.Param
	// Branches maps if/while statement ids to branch information.
	Branches map[int]BranchInfo

	a analyzer // the analysis' memory, kept for AnalyzeInto
}

// maxExprSize bounds substituted expressions; larger results widen to ⊤.
// Rank arithmetic in real SPMD code is tiny; the bound only guards against
// pathological self-referential growth inside loops.
const maxExprSize = 64

// state holds one abstract value per tracked variable, indexed by the
// analyzer's variable table; a nil Expr means ⊤. Every assignable name is
// in the table (declared variables plus any assignment/receive targets), so
// the dense representation is total: clone is one slice copy and join/equal
// are element-wise, with none of the map iteration the fixpoint used to pay
// for on every loop round.
type state []mpl.Expr

// join merges two states in place into s: variables whose abstract values
// differ become ⊤.
func (s state) join(o state) {
	for i, v := range o {
		if !sameAbstract(s[i], v) {
			s[i] = nil
		}
	}
}

var zeroLit mpl.Expr = mpl.Int(0)

// smallLits interns the literal values constant folding produces most —
// loop counters and 0/1 condition results. Literals are immutable, so
// sharing across analyses is safe.
var smallLits = func() [129]mpl.Expr {
	var a [129]mpl.Expr
	for i := range a {
		a[i] = mpl.Int(i)
	}
	return a
}()

func (a *analyzer) intLit(v int) mpl.Expr {
	if v >= 0 && v < len(smallLits) {
		return smallLits[v]
	}
	return mpl.Int(v)
}

// sameAbstract compares abstract values. Equality is defined by rendering
// (two values are the same when they print the same), but the common cases
// — shared nodes and structurally identical trees — are decided without
// allocating the strings; only structurally different trees that might
// still print alike (e.g. associativity regroupings) pay for ExprString.
func sameAbstract(a, b mpl.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if mpl.EqualExpr(a, b) {
		return true
	}
	return mpl.ExprString(a) == mpl.ExprString(b)
}

func (s state) equal(o state) bool {
	for i := range s {
		if !sameAbstract(s[i], o[i]) {
			return false
		}
	}
	return true
}

// analyzer carries the program context and the accumulated records.
type analyzer struct {
	constLits map[string]mpl.Expr // interned literal per constant
	vars      VarTable            // variable name -> state slot
	pool      []state             // released state buffers for borrow
	interned  map[internKey]mpl.Expr
	varying   []bool // by slot: the variable may differ between processes
	res       *Result
}

// internKey identifies a rebuilt Unary (r nil) or Binary node by operator
// and operand identity. Operands are themselves interned literals or
// shared program nodes, so the same substitution produces the same key on
// every fixpoint iteration.
type internKey struct {
	op   mpl.Op
	l, r mpl.Expr
}

// internPut records a freshly built node for its key. Loop fixpoints
// re-substitute the same few shapes every iteration; without sharing each
// iteration allocates a fresh identical tree. Abstract values are
// immutable, so sharing is safe.
func (a *analyzer) internPut(k internKey, e mpl.Expr) {
	if a.interned == nil {
		a.interned = make(map[internKey]mpl.Expr, 16)
	}
	a.interned[k] = e
}

// borrow returns a copy of src backed by a pooled buffer when one is
// available. Loop fixpoints clone states every iteration — and nested loops
// re-run their inner fixpoint per outer iteration — so recycling the
// buffers keeps the whole analysis at O(nesting depth) state allocations
// instead of O(total iterations).
func (a *analyzer) borrow(src state) state {
	if k := len(a.pool); k > 0 {
		b := a.pool[k-1][:0]
		a.pool = a.pool[:k-1]
		return append(b, src...)
	}
	return append(state(nil), src...) // abstract values are immutable; sharing is fine
}

func (a *analyzer) release(b state) {
	a.pool = append(a.pool, b)
}

// Analyze runs the analysis on a program.
func Analyze(p *mpl.Program) *Result {
	r := &Result{}
	AnalyzeInto(p, r)
	return r
}

// AnalyzeInto is Analyze writing into r's memory: whatever r held is gone.
func AnalyzeInto(p *mpl.Program, r *Result) {
	r.Reset()
	a := &r.a
	// Sized by the statements each map records: growing them bucket by
	// bucket showed up in the transform profile.
	if r.Params == nil {
		comm, branches := countRecords(p.Body)
		r.Params = make(map[int]attr.Param, comm)
		r.Branches = make(map[int]BranchInfo, branches)
	}
	if a.constLits == nil {
		a.constLits = make(map[string]mpl.Expr, len(p.Consts))
	}
	a.res = r
	for _, c := range p.Consts {
		a.constLits[c.Name] = mpl.Int(c.Value)
	}
	// The VarTable covers declared variables plus undeclared
	// assignment/receive targets, so the dense state is total and reads of
	// never-assigned names fall back to the implicit zero exactly as the
	// sparse representation did.
	a.vars.fill(p)
	init := a.borrow(nil)
	for range a.vars.Names {
		init = append(init, zeroLit)
	}
	a.body(p.Body, init)
	a.release(init)
	a.varying = append(a.varying[:0], make([]bool, len(a.vars.Names))...)
	for a.taint(p.Body, false) {
	}
	a.markUniform(p.Body)
}

// Reset empties r, keeping its memory for the next AnalyzeInto: it drops
// every expression and name r refers to, so the memory keeps no program
// alive.
func (r *Result) Reset() {
	a := &r.a
	clear(r.Params)
	clear(r.Branches)
	clear(a.constLits)
	clear(a.interned)
	clear(a.vars.Index)
	clear(a.vars.Names)
	for _, s := range a.pool {
		clear(s)
	}
	a.res = nil
}

// countRecords counts the statements of body that get a Params record
// (send, recv, bcast, reduce) and those that get a Branches record (if,
// while).
func countRecords(body []mpl.Stmt) (comm, branches int) {
	for _, st := range body {
		switch n := st.(type) {
		case *mpl.Send, *mpl.Recv, *mpl.Bcast, *mpl.Reduce:
			comm++
		case *mpl.If:
			c1, b1 := countRecords(n.Then)
			c2, b2 := countRecords(n.Else)
			comm, branches = comm+c1+c2, branches+b1+b2+1
		case *mpl.While:
			c, b := countRecords(n.Body)
			comm, branches = comm+c, branches+b+1
		}
	}
	return comm, branches
}

// exprSize counts expression nodes (direct recursion; this runs after
// every resolve and a WalkExpr closure here would allocate).
func exprSize(e mpl.Expr) int {
	switch x := e.(type) {
	case *mpl.Input:
		return 1 + exprSize(x.X)
	case *mpl.Unary:
		return 1 + exprSize(x.X)
	case *mpl.Binary:
		return 1 + exprSize(x.L) + exprSize(x.R)
	default:
		return 1
	}
}

// resolve substitutes variables and constants in e using the state,
// producing a closed expression over (rank, nproc), or nil when the
// expression depends on unknown values or input data.
func (a *analyzer) resolve(e mpl.Expr, s state) mpl.Expr {
	out := a.subst(e, s)
	if out == nil {
		return nil
	}
	// Simplification keeps substituted expressions small (e.g. iteration
	// counters like 0+1+1 fold to 2), delaying the size widening and
	// making resolved parameters readable in diagnostics.
	out = mpl.Simplify(out)
	if exprSize(out) > maxExprSize {
		return nil
	}
	return out
}

// subst is resolve's substitution pass, written as a method (not a
// recursive closure — resolve runs on every statement of every fixpoint
// iteration, and the escaping closure allocation dominated the analysis).
func (a *analyzer) subst(e mpl.Expr, s state) mpl.Expr {
	switch x := e.(type) {
	case *mpl.IntLit:
		return x
	case *mpl.Ident:
		switch x.Name {
		case mpl.BuiltinRank, mpl.BuiltinNproc:
			return x
		}
		if lit, ok := a.constLits[x.Name]; ok {
			return lit // interned: abstract values are never mutated
		}
		if i, ok := a.vars.Index[x.Name]; ok {
			return s[i] // nil when ⊤
		}
		return zeroLit // never-assigned name: the implicit zero
	case *mpl.Input:
		return nil // input(...) is irregular
	case *mpl.Unary:
		inner := a.subst(x.X, s)
		if inner == nil {
			return nil
		}
		if inner == x.X {
			return x // nothing substituted; share the original node
		}
		if lit, ok := inner.(*mpl.IntLit); ok {
			if v, ok := mpl.FoldUnary(x.Op, lit.Value); ok {
				return a.intLit(v)
			}
		}
		k := internKey{op: x.Op, l: inner}
		if e, ok := a.interned[k]; ok {
			return e
		}
		e := mpl.Expr(&mpl.Unary{Op: x.Op, X: inner})
		a.internPut(k, e)
		return e
	case *mpl.Binary:
		l := a.subst(x.L, s)
		if l == nil {
			return nil
		}
		r := a.subst(x.R, s)
		if r == nil {
			return nil
		}
		if l == x.L && r == x.R {
			return x // nothing substituted; share the original node
		}
		// Fold constant-constant right here: loop counters and resolved
		// conditions hit this on every fixpoint iteration, and building the
		// Binary only for Simplify to collapse it doubled the garbage.
		if ll, ok := l.(*mpl.IntLit); ok {
			if rl, ok := r.(*mpl.IntLit); ok {
				if v, ok := mpl.FoldBinary(x.Op, ll.Value, rl.Value); ok {
					return a.intLit(v)
				}
			}
		}
		k := internKey{op: x.Op, l: l, r: r}
		if e, ok := a.interned[k]; ok {
			return e
		}
		e := mpl.Expr(&mpl.Binary{Op: x.Op, L: l, R: r})
		a.internPut(k, e)
		return e
	default:
		return nil
	}
}

// recordParam joins a newly observed resolution into the per-statement
// record: disagreeing resolutions across loop iterations widen to the
// wildcard.
func (a *analyzer) recordParam(id int, resolved mpl.Expr) {
	newParam := attr.WildcardParam
	if resolved != nil {
		newParam = attr.ExprParam(resolved)
	}
	old, seen := a.res.Params[id]
	if !seen {
		a.res.Params[id] = newParam
		return
	}
	if old.Wildcard || newParam.Wildcard || !sameAbstract(old.Expr, newParam.Expr) {
		a.res.Params[id] = attr.WildcardParam
	}
}

func (a *analyzer) recordBranch(id int, resolved mpl.Expr) {
	nb := BranchInfo{Resolved: resolved, IDDependent: resolved != nil && mentionsRank(resolved)}
	old, seen := a.res.Branches[id]
	if !seen {
		a.res.Branches[id] = nb
		return
	}
	if old.Resolved == nil || resolved == nil || !sameAbstract(old.Resolved, resolved) {
		a.res.Branches[id] = BranchInfo{}
	}
}

// mentionsRank recurses directly (no WalkExpr closure — this runs on every
// branch revisit of the loop fixpoint, and the escaping closure was a
// measurable share of the analysis' allocations).
func mentionsRank(e mpl.Expr) bool {
	switch x := e.(type) {
	case *mpl.Ident:
		return x.Name == mpl.BuiltinRank
	case *mpl.Input:
		return mentionsRank(x.X)
	case *mpl.Unary:
		return mentionsRank(x.X)
	case *mpl.Binary:
		return mentionsRank(x.L) || mentionsRank(x.R)
	default:
		return false
	}
}

// body analyzes a statement list, mutating s to the post-state.
func (a *analyzer) body(stmts []mpl.Stmt, s state) {
	for _, st := range stmts {
		a.stmt(st, s)
	}
}

func (a *analyzer) stmt(st mpl.Stmt, s state) {
	switch n := st.(type) {
	case *mpl.Assign:
		s[a.vars.Index[n.Name]] = a.resolve(n.X, s)
	case *mpl.Work:
		// No state change.
	case *mpl.Send:
		a.recordParam(n.ID(), a.resolve(n.Dest, s))
	case *mpl.Recv:
		a.recordParam(n.ID(), a.resolve(n.Src, s))
		s[a.vars.Index[n.Var]] = nil // received value is unknown
	case *mpl.Bcast:
		a.recordParam(n.ID(), a.resolve(n.Root, s))
		s[a.vars.Index[n.Var]] = nil // root's value is unknown to the analysis
	case *mpl.Reduce:
		a.recordParam(n.ID(), a.resolve(n.Root, s))
		s[a.vars.Index[n.Var]] = nil // the root's sum is unknown; conservatively widen all
	case *mpl.Chkpt:
		// No state change.
	case *mpl.If:
		a.recordBranch(n.ID(), a.resolve(n.Cond, s))
		thenState := a.borrow(s)
		a.body(n.Then, thenState)
		elseState := a.borrow(s)
		a.body(n.Else, elseState)
		// s := join(then, else)
		copy(s, thenState)
		s.join(elseState)
		a.release(thenState)
		a.release(elseState)
	case *mpl.While:
		// Fixpoint: the loop may execute zero or more times. iter and next
		// are overwritten each iteration; cur and next swap roles, so all
		// three buffers live for the whole fixpoint.
		cur := a.borrow(s)
		iter := a.borrow(s)
		next := a.borrow(s)
		for {
			a.recordBranch(n.ID(), a.resolve(n.Cond, cur))
			iter = append(iter[:0], cur...)
			a.body(n.Body, iter)
			next = append(next[:0], cur...)
			next.join(iter)
			if next.equal(cur) {
				break
			}
			cur, next = next, cur
		}
		copy(s, cur)
		a.release(cur)
		a.release(iter)
		a.release(next)
	}
}

// taint is one pass of the fixpoint that finds the variables that may
// differ between processes (varying): those received into, or assigned
// from an expression that is not uniform or under a branch whose condition
// is not. It reports whether the pass marked a new one.
func (a *analyzer) taint(body []mpl.Stmt, varying bool) (changed bool) {
	mark := func(name string, varies bool) {
		if i := a.vars.Index[name]; varies && !a.varying[i] {
			a.varying[i], changed = true, true
		}
	}
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Assign:
			mark(st.Name, varying || !a.uniform(st.X))
		case *mpl.Recv:
			mark(st.Var, true)
		case *mpl.Bcast:
			mark(st.Var, true)
		case *mpl.Reduce:
			mark(st.Var, true)
		case *mpl.While:
			changed = a.taint(st.Body, varying || !a.uniform(st.Cond)) || changed
		case *mpl.If:
			v := varying || !a.uniform(st.Cond)
			changed = a.taint(st.Then, v) || changed
			changed = a.taint(st.Else, v) || changed
		}
	}
	return changed
}

// markUniform sets every branch's Uniform once the fixpoint has found
// every varying variable.
func (a *analyzer) markUniform(body []mpl.Stmt) {
	mpl.Walk(body, func(s mpl.Stmt) bool {
		var cond mpl.Expr
		switch st := s.(type) {
		case *mpl.While:
			cond = st.Cond
		case *mpl.If:
			cond = st.Cond
		default:
			return true
		}
		bi := a.res.Branches[s.ID()]
		bi.Uniform = a.uniform(cond)
		a.res.Branches[s.ID()] = bi
		return true
	})
}

// uniform reports whether e has one value on every process: it reads no
// rank, no input and no varying variable.
func (a *analyzer) uniform(e mpl.Expr) bool {
	switch x := e.(type) {
	case *mpl.IntLit:
		return true
	case *mpl.Ident:
		if x.Name == mpl.BuiltinRank {
			return false
		}
		i, ok := a.vars.Index[x.Name]
		return !ok || !a.varying[i] // a constant or nproc, or a variable
	case *mpl.Unary:
		return a.uniform(x.X)
	case *mpl.Binary:
		return a.uniform(x.L) && a.uniform(x.R)
	default: // input(…)
		return false
	}
}

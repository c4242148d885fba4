package verify

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/mpl"
)

// MutationKind enumerates the checkpoint-sabotage operators.
type MutationKind int

// The operators. Each breaks a transformed program in a way the checker
// pipeline must notice — statically, by contract, or dynamically.
const (
	// MutDelete removes one checkpoint statement.
	MutDelete MutationKind = iota
	// MutMove swaps one checkpoint with an adjacent communication
	// statement, dragging it across a send/recv boundary.
	MutMove
	// MutSkew wraps one checkpoint and the communication statement after
	// it in a rank-parity branch — even ranks checkpoint before the
	// communication, odd ranks after. This is the paper's Figure 2 shape:
	// statically well-formed (both branches hold one checkpoint, so the
	// enumeration stays balanced) but dynamically unsafe.
	MutSkew
	// MutPruneDrop deletes one variable from one checkpoint site's liveness
	// manifest, so pruned snapshots taken at that site silently lose a live
	// variable. The program itself is untouched; only the restore-equivalence
	// axis can catch this class (the four trace deciders never look at
	// snapshot contents).
	MutPruneDrop
	// MutCrossClear adds to the program's quiet channels one channel, at
	// one process count, that an explored run saw a message in flight on
	// across a straight cut: its messages get no send-log record. The
	// execution is untouched; the restore-equivalence axis catches it,
	// because the cut it crossed can no longer be rebuilt.
	MutCrossClear
	// MutRankShift renames every rank a rank guard (if rank == c) names
	// to c + rankShift, in the guards and in the peers written as that
	// literal, so the exchange they set up runs only among ranks past the
	// process counts Phase II checks — the far.mpl shape (ROADMAP 24). It
	// runs at the largest new constant + 2, where the runtime's proof gate
	// must refuse it or the trace deciders catch it.
	MutRankShift
	// MutLoopExit adds, right behind a uniform loop that holds a
	// checkpoint in its body, a send from rank 0 that feeds a receive rank
	// 1 runs once inside the loop, in front of that checkpoint — loopgap's
	// shape: the path leaves the loop through its exit and comes back by a
	// message. Where no other message runs from rank 0 to rank 1, rank 1's
	// first iteration waits for rank 0's last, so rank 0's latest
	// checkpoint happens before rank 1's.
	MutLoopExit
	// MutTripShift raises the bound of a uniform loop that holds a
	// checkpoint in its body by rank % 2 — aligngap's shape: odd ranks run
	// it once more, so its iterations no longer align across processes.
	MutTripShift
)

// rankShift is what MutRankShift adds to a rank.
const rankShift = 16

// String names the kind.
func (k MutationKind) String() string {
	switch k {
	case MutDelete:
		return "delete"
	case MutMove:
		return "move"
	case MutSkew:
		return "skew"
	case MutPruneDrop:
		return "prune-drop"
	case MutCrossClear:
		return "cross-clear"
	case MutRankShift:
		return "rank-shift"
	case MutLoopExit:
		return "loop-exit"
	case MutTripShift:
		return "trip-shift"
	default:
		return fmt.Sprintf("mutation(%d)", int(k))
	}
}

// Mutant is one sabotaged program.
type Mutant struct {
	Prog *mpl.Program
	Kind MutationKind
	Site int // index into the program's checkpoint sites, in body order
	Desc string

	// Prune-drop mutants leave Prog nil and instead name the manifest entry
	// to sabotage: the variable DropVar at the checkpoint with statement id
	// DropStmt.
	DropStmt int
	DropVar  string

	// A cross-clear mutant's Prog differs from the program in one channel
	// of Quiet, at Channel.N processes only.
	Channel Channel

	// N is the process count a rank-shift mutant runs at.
	N int
}

// Channel is channel From→To of a run of N processes.
type Channel struct{ N, From, To int }

// site is where a statement sits in the program its walk read: its block,
// that block's list, and its position there.
type site struct {
	block mpl.Block
	list  []mpl.Stmt
	pos   int
}

// chkptSites returns the site of every checkpoint statement, each list's
// own before those of the lists nested in it: list[pos] is the *mpl.Chkpt.
func chkptSites(p *mpl.Program) []site {
	var out []site
	var walk func(list []mpl.Stmt, b mpl.Block)
	walk = func(list []mpl.Stmt, b mpl.Block) {
		for pos, s := range list {
			if _, ok := s.(*mpl.Chkpt); ok {
				out = append(out, site{block: b, list: list, pos: pos})
			}
		}
		for _, s := range list {
			switch st := s.(type) {
			case *mpl.While:
				walk(st.Body, mpl.Block{Owner: st.ID()})
			case *mpl.If:
				walk(st.Then, mpl.Block{Owner: st.ID()})
				walk(st.Else, mpl.Block{Owner: st.ID(), Else: true})
			}
		}
	}
	walk(p.Body, mpl.Block{Owner: mpl.TopLevel})
	return out
}

// edited returns a Clone of p that fn edits. The clone shares every
// statement and list the edit leaves as it was with p, which stays as it
// was (mpl.Edit copies what it changes).
func edited(p *mpl.Program, fn func(e *mpl.Edit)) *mpl.Program {
	cp := mpl.Clone(p)
	e := cp.Edit()
	fn(e)
	e.Close()
	return cp
}

// replace puts s in the place of the statement with its id in the program
// e edits.
func replace(e *mpl.Edit, s mpl.Stmt) {
	b, i, _ := e.Locate(s.ID())
	e.Remove(s.ID())
	e.Insert(b, i, s)
}

// isComm reports whether s is a communication statement.
func isComm(s mpl.Stmt) bool {
	switch s.(type) {
	case *mpl.Send, *mpl.Recv, *mpl.Bcast, *mpl.Reduce:
		return true
	}
	return false
}

// DeleteMutants returns one mutant per checkpoint statement, each with
// that single checkpoint removed.
func DeleteMutants(p *mpl.Program) []Mutant {
	sites := chkptSites(p)
	out := make([]Mutant, 0, len(sites))
	for i, s := range sites {
		id := s.list[s.pos].ID()
		out = append(out, Mutant{
			Prog: edited(p, func(e *mpl.Edit) { e.Remove(id) }), Kind: MutDelete, Site: i,
			Desc: fmt.Sprintf("delete checkpoint stmt #%d (site %d)", id, i),
		})
	}
	return out
}

// MoveMutants returns one mutant per checkpoint that has a communication
// statement as an immediate neighbour, with the two swapped (preferring
// the following neighbour).
func MoveMutants(p *mpl.Program) []Mutant {
	var out []Mutant
	for i, s := range chkptSites(p) {
		other := -1
		if s.pos+1 < len(s.list) && isComm(s.list[s.pos+1]) {
			other = s.pos + 1
		} else if s.pos > 0 && isComm(s.list[s.pos-1]) {
			other = s.pos - 1
		}
		if other < 0 {
			continue
		}
		id := s.list[s.pos].ID()
		out = append(out, Mutant{
			Prog: edited(p, func(e *mpl.Edit) { e.Insert(s.block, other, e.Remove(id)) }), Kind: MutMove, Site: i,
			Desc: fmt.Sprintf("move checkpoint stmt #%d across %T (site %d)", id, s.list[other], i),
		})
	}
	return out
}

// SkewMutants returns one mutant per checkpoint immediately followed by a
// communication statement: the pair is rewrapped as
//
//	if rank % 2 == 0 { chkpt; comm } else { comm; chkpt }
//
// so the checkpoint lands on opposite sides of the communication on even
// and odd ranks — Figure 2 reconstructed inside a verified program.
func SkewMutants(p *mpl.Program) []Mutant {
	nextID := p.MaxStmtID() + 1
	var out []Mutant
	for i, s := range chkptSites(p) {
		if s.pos+1 >= len(s.list) || !isComm(s.list[s.pos+1]) {
			continue
		}
		ck, comm := s.list[s.pos], s.list[s.pos+1]
		copyID := nextID + 1
		ifStmt := &mpl.If{
			StmtBase: mpl.StmtBase{StmtID: nextID},
			Cond:     mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)),
			Then:     []mpl.Stmt{ck, comm},
			Else:     mpl.Renumber([]mpl.Stmt{comm, ck}, &copyID),
		}
		out = append(out, Mutant{
			Prog: edited(p, func(e *mpl.Edit) {
				e.Remove(ck.ID())
				e.Remove(comm.ID())
				e.Insert(s.block, s.pos, ifStmt)
			}),
			Kind: MutSkew, Site: i,
			Desc: fmt.Sprintf("skew checkpoint stmt #%d around %T into rank-parity branches (site %d)", ck.ID(), comm, i),
		})
	}
	return out
}

// AllMutants concatenates every operator's mutants.
func AllMutants(p *mpl.Program) []Mutant {
	out := DeleteMutants(p)
	out = append(out, MoveMutants(p)...)
	out = append(out, SkewMutants(p)...)
	return out
}

// PruneDropMutants returns one mutant per (checkpoint site, live variable)
// pair where the clean run's restore log recorded a non-initial value —
// profile, built by liveNonZero over the explored executions. Dropping a
// variable that held its initial value at every recorded instance is an
// equivalent mutant (the pruned restore reconstructs the value exactly), so
// such pairs are skipped rather than counted as escapes.
func PruneDropMutants(manifests map[int][]string, profile map[int]map[string]bool) []Mutant {
	stmts := make([]int, 0, len(manifests))
	for id := range manifests {
		stmts = append(stmts, id)
	}
	sort.Ints(stmts)
	var out []Mutant
	for _, id := range stmts {
		for _, name := range manifests[id] {
			if !profile[id][name] {
				continue
			}
			out = append(out, Mutant{
				Kind: MutPruneDrop, DropStmt: id, DropVar: name,
				Desc: fmt.Sprintf("drop live variable %q from checkpoint stmt #%d manifest", name, id),
			})
		}
	}
	return out
}

// CrossClearMutants returns one mutant per channel the clean runs saw a
// message in flight on across a straight cut — crossing, built by
// crossingChannels over the explored executions — that p does not hold
// quiet, with that channel added to Quiet, in process count then channel
// order. A channel no explored cut had a message in flight on is skipped:
// marking it quiet changes nothing any replay reads.
func CrossClearMutants(p *mpl.Program, crossing map[Channel]bool) []Mutant {
	chans := make([]Channel, 0, len(crossing))
	for c := range crossing {
		if !p.Quiet.Has(c.N, c.From, c.To) {
			chans = append(chans, c)
		}
	}
	slices.SortFunc(chans, func(a, b Channel) int {
		return cmp.Or(cmp.Compare(a.N, b.N), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	out := make([]Mutant, 0, len(chans))
	for _, c := range chans {
		cp := mpl.Clone(p)
		cp.Quiet.Add(c.N, c.From, c.To)
		out = append(out, Mutant{
			Prog: cp, Kind: MutCrossClear, Channel: c,
			Desc: fmt.Sprintf("unlog channel %d->%d at n=%d, seen in flight across a straight cut", c.From, c.To, c.N),
		})
	}
	return out
}

// rankConst returns c when e is rank == c or c == rank.
func rankConst(e mpl.Expr) (int, bool) {
	b, ok := e.(*mpl.Binary)
	if !ok || b.Op != mpl.OpEq {
		return 0, false
	}
	l, r := b.L, b.R
	if _, ok := r.(*mpl.Ident); ok {
		l, r = r, l
	}
	id, isIdent := l.(*mpl.Ident)
	c, isLit := r.(*mpl.IntLit)
	if !isIdent || !isLit || id.Name != mpl.BuiltinRank {
		return 0, false
	}
	return c.Value, true
}

// RankShiftMutants returns the rank-shift mutant of p, or none when no
// rank guard names a rank: each guard's constant, and each send, recv,
// bcast or reduce peer written as a constant some guard names, raised by
// rankShift.
func RankShiftMutants(p *mpl.Program) []Mutant {
	var ranks []int
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if st, ok := s.(*mpl.If); ok {
			if c, ok := rankConst(st.Cond); ok {
				ranks = append(ranks, c)
			}
		}
		return true
	})
	if len(ranks) == 0 {
		return nil
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	shift := func(e mpl.Expr) mpl.Expr {
		if c, ok := e.(*mpl.IntLit); ok && slices.Contains(ranks, c.Value) {
			return mpl.Int(c.Value + rankShift)
		}
		return e
	}
	// The walk meets an if before the statements in its lists, so the new
	// if takes lists the edit has not changed yet.
	cp := edited(p, func(e *mpl.Edit) {
		mpl.Walk(p.Body, func(s mpl.Stmt) bool {
			switch st := s.(type) {
			case *mpl.If:
				if c, ok := rankConst(st.Cond); ok {
					replace(e, &mpl.If{StmtBase: st.StmtBase, Cond: mpl.Eq(mpl.Rank(), mpl.Int(c+rankShift)), Then: st.Then, Else: st.Else})
				}
			case *mpl.Send:
				if d := shift(st.Dest); d != st.Dest {
					replace(e, &mpl.Send{StmtBase: st.StmtBase, Dest: d, Var: st.Var})
				}
			case *mpl.Recv:
				if src := shift(st.Src); src != st.Src {
					replace(e, &mpl.Recv{StmtBase: st.StmtBase, Src: src, Var: st.Var})
				}
			case *mpl.Bcast:
				if root := shift(st.Root); root != st.Root {
					replace(e, &mpl.Bcast{StmtBase: st.StmtBase, Root: root, Var: st.Var})
				}
			case *mpl.Reduce:
				if root := shift(st.Root); root != st.Root {
					replace(e, &mpl.Reduce{StmtBase: st.StmtBase, Root: root, Var: st.Var})
				}
			}
			return true
		})
	})
	n := ranks[len(ranks)-1] + rankShift + 2
	return []Mutant{{
		Prog: cp, Kind: MutRankShift, N: n,
		Desc: fmt.Sprintf("raise ranks %v by %d, run at n=%d", ranks, rankShift, n),
	}}
}

// uniformLoops returns the site of every while statement of p that runs
// equally often on every process — its condition and every enclosing
// while's are uniform — and holds a checkpoint in its own body, in body
// order: list[pos] is the *mpl.While.
func uniformLoops(p *mpl.Program) []site {
	df := dataflow.Analyze(p)
	var out []site
	var walk func(list []mpl.Stmt, b mpl.Block, uniform bool)
	walk = func(list []mpl.Stmt, b mpl.Block, uniform bool) {
		for pos, s := range list {
			switch st := s.(type) {
			case *mpl.While:
				u := uniform && df.Branches[st.ID()].Uniform
				if u && slices.ContainsFunc(st.Body, func(s mpl.Stmt) bool { _, ok := s.(*mpl.Chkpt); return ok }) {
					out = append(out, site{block: b, list: list, pos: pos})
				}
				walk(st.Body, mpl.Block{Owner: st.ID()}, u)
			case *mpl.If:
				walk(st.Then, mpl.Block{Owner: st.ID()}, uniform)
				walk(st.Else, mpl.Block{Owner: st.ID(), Else: true}, uniform)
			}
		}
	}
	walk(p.Body, mpl.Block{Owner: mpl.TopLevel}, true)
	return out
}

// freshVar returns a variable name after base that p does not declare.
func freshVar(p *mpl.Program, base string) string {
	name := base
	for slices.Contains(p.Vars, name) {
		name += "_"
	}
	return name
}

// LoopExitMutants returns one mutant per uniform loop holding a checkpoint
// (uniformLoops): with flag and tok fresh variables, the loop becomes
//
//	flag = 0
//	while … { …; if rank == 1 { if flag == 0 { recv(0, tok) } }; flag = 1; chkpt; … }
//	if rank == 0 { send(1, tok) }
//
// with the receive in front of the body's first checkpoint. The mutant's
// channels are no longer the ones the send-log rule proved quiet, so it
// has no Quiet.
func LoopExitMutants(p *mpl.Program) []Mutant {
	loops := uniformLoops(p)
	out := make([]Mutant, 0, len(loops))
	flag, tok := freshVar(p, "exitflag"), freshVar(p, "exittok")
	maxID := p.MaxStmtID()
	for i, s := range loops {
		w := s.list[s.pos].(*mpl.While)
		id := maxID
		next := func() mpl.StmtBase { id++; return mpl.StmtBase{StmtID: id} }
		k := slices.IndexFunc(w.Body, func(s mpl.Stmt) bool { _, ok := s.(*mpl.Chkpt); return ok })
		recv := &mpl.If{StmtBase: next(), Cond: mpl.Eq(mpl.Rank(), mpl.Int(1)), Then: []mpl.Stmt{
			&mpl.If{StmtBase: next(), Cond: mpl.Eq(mpl.V(flag), mpl.Int(0)), Then: []mpl.Stmt{
				&mpl.Recv{StmtBase: next(), Src: mpl.Int(0), Var: tok},
			}},
		}}
		set := &mpl.Assign{StmtBase: next(), Name: flag, X: mpl.Int(1)}
		reset := &mpl.Assign{StmtBase: next(), Name: flag, X: mpl.Int(0)}
		send := &mpl.If{StmtBase: next(), Cond: mpl.Eq(mpl.Rank(), mpl.Int(0)), Then: []mpl.Stmt{
			&mpl.Send{StmtBase: next(), Dest: mpl.Int(1), Var: tok},
		}}
		cp := edited(p, func(e *mpl.Edit) {
			body := mpl.Block{Owner: w.ID()}
			e.Insert(body, k, set)
			e.Insert(body, k, recv)
			e.Insert(s.block, s.pos+1, send)
			e.Insert(s.block, s.pos, reset)
		})
		cp.Vars = append(cp.Vars, flag, tok)
		cp.Quiet = nil
		out = append(out, Mutant{
			Prog: cp, Kind: MutLoopExit, Site: i,
			Desc: fmt.Sprintf("send behind loop #%d into a receive in front of its checkpoint (loop %d)", w.ID(), i),
		})
	}
	return out
}

// TripShiftMutants returns one mutant per uniform loop holding a checkpoint
// (uniformLoops) whose condition compares with <, <=, > or >=: its bound,
// the side the counter runs toward, raised by rank % 2.
func TripShiftMutants(p *mpl.Program) []Mutant {
	var out []Mutant
	for i, s := range uniformLoops(p) {
		w := s.list[s.pos].(*mpl.While)
		c, ok := w.Cond.(*mpl.Binary)
		if !ok {
			continue
		}
		shift := func(e mpl.Expr) mpl.Expr { return mpl.Add(e, mpl.Mod(mpl.Rank(), mpl.Int(2))) }
		var cond mpl.Expr
		switch c.Op {
		case mpl.OpLt, mpl.OpLe:
			cond = &mpl.Binary{Op: c.Op, L: c.L, R: shift(c.R)}
		case mpl.OpGt, mpl.OpGe:
			cond = &mpl.Binary{Op: c.Op, L: shift(c.L), R: c.R}
		default:
			continue
		}
		out = append(out, Mutant{
			Prog: edited(p, func(e *mpl.Edit) { replace(e, &mpl.While{StmtBase: w.StmtBase, Cond: cond, Body: w.Body}) }),
			Kind: MutTripShift, Site: i,
			Desc: fmt.Sprintf("raise loop #%d's bound by rank %% 2 (loop %d)", w.ID(), i),
		})
	}
	return out
}

// Package place implements Phase III of the paper (§3.3): given a program
// whose checkpoint statements are enumerated into straight cuts S_i, it
// moves checkpoint statements until no causal path connects two members of
// any S_i in the extended CFG Ĝ — Condition 1 — so that in any further
// execution every straight cut R_i is a recovery line (Theorem 3.2).
//
// The engine is Algorithm 3.2 run to fixpoint: find a violating pair
// (C_i^A, C_i^B) with a causal path γ from C_i^A to C_i^B, and move C_i^B
// backward in the CFG to an edge ⟨a, b⟩ on its dominator chain such that
// C_i^A cannot reach a in Ĝ (the ENTRY node guarantees such an edge
// exists, per the paper's termination argument). Moving a checkpoint can
// unbalance if-branch checkpoint counts, so each round re-equalizes
// (Phase I's add/remove rule) before re-analyzing.
//
// With Options.PreserveLoops (the paper's end-of-§3.3 optimization, on by
// default in DefaultOptions) a violating pair whose every causal path
// traverses a backward control edge is NOT moved: such causality only
// crosses loop iterations, so under Definition 2.3's latest-instance
// straight cuts the recovery line is preserved provided checkpoint
// completion follows message order; the pair is recorded as an ordering
// constraint instead. The simulator verifies this empirically.
package place

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/insert"
	"repro/internal/mpl"
)

// Options configures Phase III.
type Options struct {
	// PreserveLoops keeps checkpoints inside loops when every violating
	// path crosses a loop boundary (back edge), recording an ordering
	// constraint instead of moving.
	PreserveLoops bool
	// MaxIterations bounds the move-reanalyze fixpoint. Zero means the
	// default (100).
	MaxIterations int
	// Arena, when non-nil, supplies the call's scratch buffers and closure
	// sets (reset once, when the call starts).
	Arena *cfg.Arena
	// AssumeOwned lets Ensure mutate the input program directly instead of
	// cloning it first — for callers (like core.Transform) that already
	// work on a private copy.
	AssumeOwned bool
}

// DefaultOptions enables the loop-preservation optimization.
var DefaultOptions = Options{PreserveLoops: true}

func (o Options) maxIter() int {
	if o.MaxIterations <= 0 {
		return 100
	}
	return o.MaxIterations
}

// Violation is a detected breach of Condition 1: the checkpoint at
// FromStmt can happen-before the one at ToStmt within the same straight
// cut.
type Violation struct {
	Index    int // the straight-cut index i
	FromStmt int // checkpoint statement id of C_i^A
	ToStmt   int // checkpoint statement id of C_i^B
	// ViaBackEdge reports that every witness path crosses a loop boundary.
	ViaBackEdge bool
}

// Move records one application of Algorithm 3.2 Step 2.
type Move struct {
	ChkptStmt  int    // the moved checkpoint statement id
	Index      int    // its straight-cut index at move time
	BeforeStmt int    // reinsertion point: before this statement id
	Reason     string // human-readable description
}

// Ordering is a loop-preserved pair: causality between the two checkpoint
// statements exists only across loop iterations.
type Ordering struct {
	Index       int
	EarlierStmt int // the upstream checkpoint (C_i^A)
	LaterStmt   int // the downstream checkpoint (C_i^B)
}

// Result reports the transformation.
type Result struct {
	// Program is the transformed program: a copy, the input left as it
	// was — unless Options.AssumeOwned, under which it is the input itself,
	// transformed in place.
	Program *mpl.Program
	// InitialViolations are the Condition-1 breaches of the input program
	// (empty when the program was already safe).
	InitialViolations []Violation
	// Moves lists the checkpoint movements applied, in order.
	Moves []Move
	// Orderings lists loop-preserved pairs remaining in the final program.
	Orderings []Ordering
	// EqualizedStmts lists checkpoint statements added by re-equalization.
	EqualizedStmts []int
	// CoalescedStmts is the number of redundant checkpoints removed.
	CoalescedStmts int
	// Iterations is the number of fixpoint rounds executed.
	Iterations int
	// Enumeration is the final checkpoint enumeration.
	Enumeration *cfg.Enumeration
	// Residual holds the violations remaining when the fixpoint failed
	// (empty on success).
	Residual []Violation
	// QuietSends counts the send statements of Program that only ever use
	// channels in Program.Quiet, the channels no straight cut can have a
	// message in flight on (crossing.go); 0 on failure.
	QuietSends int
}

// analysis is one round's view of the program: where its checkpoints sit
// on the skeleton, and what Condition 1 says about them. One value serves
// every round of an Ensure call, each overwriting the last; Ensure copies
// what it keeps (InitialViolations, the final Orderings).
type analysis struct {
	enum       cfg.Enumeration
	cks        []ckpt      // the checkpoint statements, in program order
	sources    []int       // skeleton nodes whose closures the round reads
	violations []Violation // movable violations (honoring PreserveLoops)
	orderings  []Ordering  // loop-preserved pairs
	firstFrom  int         // position in cks of violations[0].FromStmt
	firstTo    int         // position in cks of violations[0].ToStmt
}

// analyze runs enumeration + Condition 1 on the current program, over the
// skeleton built once for the call: one walk puts every checkpoint in its
// gap, and the quadratic pair query over each straight cut's members is
// answered by bit tests on the closures memoised per skeleton node. Only
// closures no earlier round asked for are computed.
func (sk *skeleton) analyze(p *mpl.Program, a *analysis, opts Options) error {
	if err := cfg.EnumerateInto(p, &a.enum); err != nil {
		return fmt.Errorf("place: %w", err)
	}
	if err := sk.place(p, a); err != nil {
		return err
	}
	a.sources = a.sources[:0]
	for i, c := range a.cks {
		if node := int(sk.gaps[c.gap].node); i == 0 || node != a.sources[len(a.sources)-1] {
			a.sources = append(a.sources, node)
		}
	}
	sk.ext.PrecomputeReach(a.sources)
	a.violations, a.orderings = a.violations[:0], a.orderings[:0]
	// Straight cuts in index order, members in program order on both sides:
	// cks is in program order, so filtering it by index visits the pairs in
	// the order a per-index grouping would, with nothing to build.
	for i := 1; i <= a.enum.Count; i++ {
		for fi := range a.cks {
			from := &a.cks[fi]
			if from.index != i {
				continue
			}
			for ti := range a.cks {
				to := &a.cks[ti]
				if to.index != i {
					continue
				}
				// from == to is NOT skipped: a single checkpoint statement
				// shared by all ranks can causally reach itself through a
				// message round-trip (e.g. rank 1's instance sends a reply
				// consumed before rank 0's instance of the same statement),
				// which violates Condition 1 exactly like a two-statement
				// pair. Causal reachability demands at least one message
				// edge, so the trivial empty path never matches.
				reaches, acyclic := sk.causal(from, to)
				if !reaches {
					continue
				}
				if opts.PreserveLoops && !acyclic {
					a.orderings = append(a.orderings, Ordering{
						Index: i, EarlierStmt: from.stmt, LaterStmt: to.stmt,
					})
					continue
				}
				if len(a.violations) == 0 {
					a.firstFrom, a.firstTo = fi, ti
				}
				a.violations = append(a.violations, Violation{
					Index: i, FromStmt: from.stmt, ToStmt: to.stmt, ViaBackEdge: !acyclic,
				})
			}
		}
	}
	return nil
}

// Ensure runs Phase III on a program (which must already contain
// checkpoints; run Phase I first otherwise) and returns the transformed
// program plus the full transformation report.
func Ensure(p *mpl.Program, opts Options) (*Result, error) { return ensureTapped(p, opts, nil) }

// ensureTapped is Ensure with a tap on every analysed round — the program
// as the round saw it and the round's findings — for the test that holds
// each round, not only the result, to the rebuild-every-round reference.
func ensureTapped(p *mpl.Program, opts Options, tap func(*mpl.Program, *analysis)) (*Result, error) {
	prog := p
	if !opts.AssumeOwned {
		prog = mpl.Clone(p)
	}
	res := &Result{}

	eq, err := insert.Equalize(prog)
	if err != nil {
		return nil, fmt.Errorf("place: pre-equalization: %w", err)
	}
	res.EqualizedStmts = append(res.EqualizedStmts, eq...)

	// Everything but the checkpoints' positions is invariant across the
	// fixpoint — rounds only add, move, or remove checkpoint statements,
	// which carry no assignments, branches, parameters or message edges —
	// so data flow, the CFG of the other statements, Phase II and the
	// causal closures are computed once, here, and every round is a walk
	// over the program and a scan over that (see skeleton).
	opts.Arena.Reset()
	sk, err := newSkeleton(prog, opts)
	if err != nil {
		return nil, err
	}
	cur := &analysis{}
	round := func(prog *mpl.Program, a *analysis) error {
		err := sk.analyze(prog, a, opts)
		if err == nil && tap != nil {
			tap(prog, a)
		}
		return err
	}
	if err := round(prog, cur); err != nil {
		return nil, err
	}
	// Snapshot: the next round overwrites the slice.
	res.InitialViolations = append([]Violation(nil), cur.violations...)

	for iter := 0; ; iter++ {
		if iter >= opts.maxIter() {
			// Return the partial transformation so callers can inspect the
			// stuck state; the error still signals failure.
			res.Program = prog
			res.Orderings = dedupOrderings(cur.orderings)
			res.Enumeration = &cur.enum
			res.Residual = cur.violations
			return res, fmt.Errorf("place: no fixpoint after %d iterations (%d violations remain)",
				iter, len(cur.violations))
		}
		res.Iterations = iter + 1
		if len(cur.violations) == 0 {
			break
		}
		moves, err := sk.applyMoves(prog, cur, opts)
		if err != nil {
			return nil, err
		}
		res.Moves = append(res.Moves, moves...)
		if !opts.PreserveLoops {
			// Base mode gathers all members of the violating index at one
			// position; merge the resulting adjacent duplicates so the
			// index collapses to a single statement.
			res.CoalescedStmts += insert.Coalesce(prog)
		}

		eq, err := insert.Equalize(prog)
		if err != nil {
			return nil, fmt.Errorf("place: re-equalization: %w", err)
		}
		res.EqualizedStmts = append(res.EqualizedStmts, eq...)

		if err := round(prog, cur); err != nil {
			return nil, err
		}
	}

	// Cleanup: coalescing adjacent duplicate checkpoints must not
	// reintroduce violations or imbalance (which the round's enumeration
	// refuses): coalesce, look, and take it back if it did. Skipped when no
	// adjacent duplicates exist — the common case.
	if hasAdjacentChkpts(prog.Body) {
		removed, undo := insert.CoalesceUndoable(prog)
		if err := round(prog, cur); err == nil && len(cur.violations) == 0 {
			res.CoalescedStmts = removed
		} else {
			undo()
			if err := sk.analyze(prog, cur, opts); err != nil {
				return nil, err
			}
		}
	}

	res.Program = prog
	res.Orderings = dedupOrderings(cur.orderings)
	res.Enumeration = &cur.enum
	prog.Quiet, res.QuietSends = sk.noCross(prog, &cur.enum, len(cur.cks), opts.Arena)
	return res, nil
}

// dedupOrderings copies a round's orderings out of its reused buffer,
// dropping repeats. The pair scan emits them in index-then-program order,
// so a repeat could only be the entry just written.
func dedupOrderings(in []Ordering) []Ordering {
	if len(in) == 0 {
		return nil
	}
	out := make([]Ordering, 0, len(in))
	for _, o := range in {
		if len(out) == 0 || out[len(out)-1] != o {
			out = append(out, o)
		}
	}
	return out
}

// applyMoves performs Algorithm 3.2 Step 2 for the first violation.
//
// In PreserveLoops mode (the default) only the downstream checkpoint
// C_i^B moves, and "no path from C_i^A to a in Ĝ" uses acyclic
// (back-edge-free) reachability — the notion that matches the mode's
// violation definition, since cross-iteration causality is tolerated and
// recorded as an ordering. The movement lands exactly before the point
// where the witness path γ enters C_i^B's dominator chain (the paper's "b
// is the first node of the path ⟨ENTRY,…,C_B⟩ that is in γ"), because every
// deeper chain edge has an upstream endpoint the violator can reach.
//
// In base mode all members of the violating straight cut S_i gather at one
// position chosen with full (cyclic) reachability from every member; the
// caller coalesces the resulting adjacent duplicates. Moving one member at
// a time in base mode can livelock against re-equalization (the moved
// checkpoint leaves its branch, equalization regrows it); gathering the
// whole cut converges and is what the repeated application of Step 2
// produces anyway once loop positions are all reachable via back edges.
func (sk *skeleton) applyMoves(prog *mpl.Program, a *analysis, opts Options) ([]Move, error) {
	from, to := a.firstFrom, a.firstTo
	index := a.violations[0].Index

	// The checkpoints to relocate, which in base mode are also the ones
	// whose reach decides where to: positions in cks.
	movers := []int{to}
	sources := []int{from}
	if !opts.PreserveLoops {
		movers = movers[:0]
		for i, c := range a.cks {
			if c.index == index {
				movers = append(movers, i)
			}
		}
		sources = movers
	}
	reached := func(s mpl.Stmt) bool {
		for _, src := range sources {
			if sk.reaches(a, &a.cks[src], s, opts.PreserveLoops) {
				return true
			}
		}
		return false
	}

	// Dominator chain of C_i^B, ordered from entry outward, read off the
	// AST. Walk it from the deepest (closest to C_B) position upward and
	// take the first edge ⟨a,b⟩ whose upstream endpoint the violators cannot
	// reach — the minimal movement satisfying the paper's condition. The
	// ENTRY node is the final fallback: nothing reaches it.
	sk.chain, _ = cfg.DomChain(sk.chain[:0], prog.Body, a.cks[to].stmt)
	for k := len(sk.chain) - 1; k >= 0; k-- {
		if k > 0 && reached(sk.chain[k-1]) {
			continue
		}
		targetStmt := sk.chain[k].ID()
		var moves []Move
		for _, m := range movers {
			ck := a.cks[m].stmt
			if ck == targetStmt {
				continue
			}
			moved, err := moveChkptBefore(prog, ck, targetStmt)
			if err != nil {
				return nil, err
			}
			moves = append(moves, Move{
				ChkptStmt:  moved,
				Index:      index,
				BeforeStmt: targetStmt,
				Reason:     moveReason(index, moved, a.cks[from].stmt, targetStmt),
			})
		}
		return moves, nil
	}
	return nil, errors.New("place: no movement position found (checkpoint already at program start)")
}

// moveReason renders a Move's diagnostic without fmt (moves happen every
// fixpoint round; Sprintf's boxing — and the statement-describing Label
// rendering before it — showed up in the pipeline profile). The
// reinsertion point is named by statement id; Move.BeforeStmt carries the
// same id for tools that want to render the statement.
func moveReason(index, moved, from, target int) string {
	b := make([]byte, 0, 72)
	b = append(b, "C_"...)
	b = strconv.AppendInt(b, int64(index), 10)
	b = append(b, " at stmt #"...)
	b = strconv.AppendInt(b, int64(moved), 10)
	b = append(b, " reachable from stmt #"...)
	b = strconv.AppendInt(b, int64(from), 10)
	b = append(b, "; moved before stmt #"...)
	b = strconv.AppendInt(b, int64(target), 10)
	return string(b)
}

// hasAdjacentChkpts reports whether any statement list of the program
// contains two immediately-adjacent checkpoint statements — the (cheap)
// precondition for insert.Coalesce to have any effect.
func hasAdjacentChkpts(body []mpl.Stmt) bool {
	prevChkpt := false
	for _, s := range body {
		if _, ok := s.(*mpl.Chkpt); ok {
			if prevChkpt {
				return true
			}
			prevChkpt = true
			continue
		}
		prevChkpt = false
		switch st := s.(type) {
		case *mpl.While:
			if hasAdjacentChkpts(st.Body) {
				return true
			}
		case *mpl.If:
			if hasAdjacentChkpts(st.Then) || hasAdjacentChkpts(st.Else) {
				return true
			}
		}
	}
	return false
}

// moveChkptBefore removes the checkpoint statement chkptID from its block
// and reinserts it immediately before statement targetID. It returns the
// moved statement's id.
func moveChkptBefore(p *mpl.Program, chkptID, targetID int) (int, error) {
	stmt, ok := removeStmt(p, chkptID)
	if !ok {
		return 0, fmt.Errorf("place: checkpoint statement #%d not found", chkptID)
	}
	ck, ok := stmt.(*mpl.Chkpt)
	if !ok {
		return 0, fmt.Errorf("place: statement #%d is %s, not a checkpoint", chkptID, mpl.DescribeStmt(stmt))
	}
	if !insertBefore(p, targetID, ck) {
		return 0, fmt.Errorf("place: reinsertion target #%d not found", targetID)
	}
	return ck.ID(), nil
}

// removeStmt removes the statement with the given id from the program,
// returning it.
func removeStmt(p *mpl.Program, id int) (mpl.Stmt, bool) {
	var removed mpl.Stmt
	var fix func(body []mpl.Stmt) []mpl.Stmt
	fix = func(body []mpl.Stmt) []mpl.Stmt {
		out := body[:0]
		for _, s := range body {
			if s.ID() == id && removed == nil {
				removed = s
				continue
			}
			switch st := s.(type) {
			case *mpl.While:
				st.Body = fix(st.Body)
			case *mpl.If:
				st.Then = fix(st.Then)
				st.Else = fix(st.Else)
			}
			out = append(out, s)
		}
		return out
	}
	p.Body = fix(p.Body)
	return removed, removed != nil
}

// insertBefore inserts stmt immediately before the statement with
// targetID, wherever it lives.
func insertBefore(p *mpl.Program, targetID int, stmt mpl.Stmt) bool {
	done := false
	var fix func(body []mpl.Stmt) []mpl.Stmt
	fix = func(body []mpl.Stmt) []mpl.Stmt {
		for i, s := range body {
			if s.ID() == targetID && !done {
				done = true
				out := make([]mpl.Stmt, 0, len(body)+1)
				out = append(out, body[:i]...)
				out = append(out, stmt)
				out = append(out, body[i:]...)
				return out
			}
			switch st := s.(type) {
			case *mpl.While:
				st.Body = fix(st.Body)
			case *mpl.If:
				st.Then = fix(st.Then)
				st.Else = fix(st.Else)
			}
			if done {
				break
			}
		}
		return body
	}
	p.Body = fix(p.Body)
	return done
}

// Check runs Condition 1 on a program without transforming it, returning
// the violations and loop-preserved orderings. It is the verification-only
// entry point (e.g. for programs the user believes are already safe).
func Check(p *mpl.Program, opts Options) (violations []Violation, orderings []Ordering, err error) {
	sk, err := newSkeleton(p, opts)
	if err != nil {
		return nil, nil, err
	}
	a := &analysis{}
	if err := sk.analyze(p, a, opts); err != nil {
		return nil, nil, err
	}
	return a.violations, dedupOrderings(a.orderings), nil
}

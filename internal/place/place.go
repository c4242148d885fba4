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
// traverses a backward control edge is NOT moved when that causality can
// only link one iteration of a loop to a later one on every process alike:
// both checkpoints lie in a uniform loop L, their innermost common one, and
// no causal path leaves L through its exit and reaches the later
// checkpoint without a backward edge (preserved). The pair is recorded as
// an ordering instead. Every other such pair is a violation, and its
// straight cut is gathered as in base mode.
package place

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/insert"
	"repro/internal/mpl"
)

// Options configures Phase III.
type Options struct {
	// PreserveLoops keeps checkpoints inside a uniform loop when every
	// violating path crosses a backward edge and none leaves the loop
	// and comes back without one, recording an ordering instead of moving.
	PreserveLoops bool
	// MaxIterations bounds the move-reanalyze fixpoint. Zero means the
	// default (100).
	MaxIterations int
	// Arena is not read: a call's scratch comes from a pooled workspace
	// (skeleton). The field is kept for callers that still set it.
	Arena *cfg.Arena
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

// Ordering is a loop-preserved pair: every causal path between the two
// checkpoint statements crosses a backward edge, both lie in a uniform
// loop, their innermost common one, and no causal path leaves that loop
// and reaches the later one without a backward edge. So the causality
// runs from one iteration of the loop to a later one, and every process
// runs the loop equally often.
type Ordering struct {
	Index       int
	EarlierStmt int // the upstream checkpoint (C_i^A)
	LaterStmt   int // the downstream checkpoint (C_i^B)
}

// Result reports the transformation.
type Result struct {
	// Program is the transformed program. It shares with the input every
	// statement and block Phase III left as it was (mpl.Edit); the input
	// is not changed.
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
				if opts.PreserveLoops && !acyclic && sk.preserved(from, to) {
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
	prog := &mpl.Program{Name: p.Name, Consts: p.Consts, Vars: p.Vars, Body: p.Body}
	e := prog.Edit() // one edit for the call: a block is copied once
	defer e.Close()
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
	sk, err := newSkeleton(prog)
	if err != nil {
		return nil, err
	}
	defer sk.release()
	cur := &sk.cur
	round := func() error {
		err := sk.analyze(prog, cur, opts)
		if err == nil && tap != nil {
			tap(prog, cur)
		}
		return err
	}
	if err := round(); err != nil {
		return nil, err
	}
	// Snapshot: the next round overwrites the slice.
	res.InitialViolations = append([]Violation(nil), cur.violations...)

	for iter := 0; ; iter++ {
		if iter >= opts.maxIter() {
			// Return the partial transformation so callers can inspect the
			// stuck state; the error still signals failure.
			finish(res, prog, cur)
			res.Residual = slices.Clone(cur.violations)
			return res, fmt.Errorf("place: no fixpoint after %d iterations (%d violations remain)",
				iter, len(cur.violations))
		}
		res.Iterations = iter + 1
		if len(cur.violations) == 0 {
			break
		}
		gather := gathers(cur.violations[0], opts)
		if res.Moves, err = sk.applyMoves(res.Moves, prog, cur, gather); err != nil {
			return nil, err
		}
		if gather {
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

		if err := round(); err != nil {
			return nil, err
		}
	}

	// Cleanup: coalescing adjacent duplicate checkpoints must not
	// reintroduce violations or imbalance (which the round's enumeration
	// refuses): coalesce, look, and take it back if it did. No round when
	// nothing was removed — the common case.
	if removed, undo := insert.CoalesceUndoable(prog); removed > 0 {
		if err := round(); err == nil && len(cur.violations) == 0 {
			res.CoalescedStmts = removed
		} else {
			undo()
			if err := sk.analyze(prog, cur, opts); err != nil {
				return nil, err
			}
		}
	}

	finish(res, prog, cur)
	prog.Quiet, res.QuietSends = sk.noCross(cur.cks)
	return res, nil
}

// finish copies the final round's program and orderings into res, out of
// the workspace.
func finish(res *Result, prog *mpl.Program, cur *analysis) {
	res.Program = prog
	res.Orderings = dedupOrderings(cur.orderings)
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

// gathers reports whether applyMoves gathers v's straight cut: in base
// mode, and for a violation every causal path of which crosses a backward
// edge, which moving one checkpoint by acyclic reach cannot repair.
func gathers(v Violation, opts Options) bool { return !opts.PreserveLoops || v.ViaBackEdge }

// applyMoves performs Algorithm 3.2 Step 2 for the first violation.
//
// For a violation with an acyclic witness in PreserveLoops mode (the
// default) only the downstream checkpoint C_i^B moves, and "no path from
// C_i^A to a in Ĝ" uses acyclic (back-edge-free) reachability — the notion
// that matches the mode's violation definition, since cross-iteration
// causality within a loop is tolerated and recorded as an ordering. The
// movement lands exactly before the point
// where the witness path γ enters C_i^B's dominator chain (the paper's "b
// is the first node of the path ⟨ENTRY,…,C_B⟩ that is in γ"), because every
// deeper chain edge has an upstream endpoint the violator can reach.
//
// With gather (base mode, or a violation only backward edges witness) all
// members of the violating straight cut S_i gather at one position chosen
// with full (cyclic) reachability from every member; the caller coalesces
// the resulting adjacent duplicates. Moving one member at
// a time in base mode can livelock against re-equalization (the moved
// checkpoint leaves its branch, equalization regrows it); gathering the
// whole cut converges and is what the repeated application of Step 2
// produces anyway once loop positions are all reachable via back edges.
func (sk *skeleton) applyMoves(moves []Move, prog *mpl.Program, a *analysis, gather bool) ([]Move, error) {
	from, to := a.firstFrom, a.firstTo
	index := a.violations[0].Index

	// The checkpoints to relocate, which in base mode are also the ones
	// whose reach decides where to: positions in cks.
	movers := []int{to}
	sources := []int{from}
	if gather {
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
			if sk.reaches(a, &a.cks[src], s, !gather) {
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

// moveChkptBefore removes the checkpoint statement chkptID from its block
// and reinserts it immediately before statement targetID, editing p as
// mpl.Edit does. It returns the moved statement's id.
func moveChkptBefore(p *mpl.Program, chkptID, targetID int) (int, error) {
	e := p.Edit()
	defer e.Close()
	stmt := e.Remove(chkptID)
	if stmt == nil {
		return 0, fmt.Errorf("place: checkpoint statement #%d not found", chkptID)
	}
	ck, ok := stmt.(*mpl.Chkpt)
	if !ok {
		return 0, fmt.Errorf("place: statement #%d is %s, not a checkpoint", chkptID, mpl.DescribeStmt(stmt))
	}
	b, i, ok := e.Locate(targetID)
	if !ok {
		return 0, fmt.Errorf("place: reinsertion target #%d not found", targetID)
	}
	e.Insert(b, i, ck)
	return ck.ID(), nil
}

// Check runs Condition 1 on a program without transforming it, returning
// the violations and loop-preserved orderings. It is the verification-only
// entry point (e.g. for programs the user believes are already safe).
func Check(p *mpl.Program, opts Options) (violations []Violation, orderings []Ordering, err error) {
	sk, err := newSkeleton(p)
	if err != nil {
		return nil, nil, err
	}
	defer sk.release()
	a := &sk.cur
	if err := sk.analyze(p, a, opts); err != nil {
		return nil, nil, err
	}
	return slices.Clone(a.violations), dedupOrderings(a.orderings), nil
}

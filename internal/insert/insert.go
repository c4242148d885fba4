// Package insert implements Phase I of the paper (§3.1): static insertion
// of application-level checkpoint statements into a message-passing
// program, guided by an optimal-checkpoint-interval model, plus the
// equalization step the paper notes ("we may add/remove some of the
// checkpoints to ensure that every path of the CFG has the same number of
// checkpoint nodes").
//
// Interval selection follows the classic first-order optimum (Young's
// formula, in the lineage of Chandy & Ramamoorthy [8] and Toueg &
// Babaoglu [22] the paper cites): T_opt = sqrt(2·o/λ) for checkpoint
// overhead o and failure rate λ. For a message-passing (rather than
// serial) program the per-iteration cost model includes an estimated
// message delay (§3.1's network-delay estimation); DefaultCostModel fixes
// it at 1 ms (ROADMAP 16 would measure it).
package insert

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cfg"
	"repro/internal/mpl"
)

// CostModel assigns abstract execution costs to statements for interval
// planning. Costs are in the same unit as the interval (seconds in the
// paper's parameterization).
type CostModel struct {
	// Compute is the cost of one assignment or one unit of work(n).
	Compute float64
	// MessageDelay is the one-way message delay added per send/recv/bcast.
	MessageDelay float64
	// CheckpointOverhead is o, the execution-time increase per checkpoint.
	CheckpointOverhead float64
	// FailureRate is λ, per-process failures per time unit.
	FailureRate float64
}

// DefaultCostModel uses the paper's §4 constants: o = 1.78 s and
// λ = 1.23e-6 /s, with a 1 ms message delay.
var DefaultCostModel = CostModel{
	Compute:            0.001,
	MessageDelay:       0.001,
	CheckpointOverhead: 1.78,
	FailureRate:        1.23e-6,
}

// YoungInterval returns the first-order optimal checkpoint interval
// sqrt(2·o/λ). It returns an error for non-positive parameters.
func YoungInterval(o, lambda float64) (float64, error) {
	if o <= 0 || lambda <= 0 {
		return 0, fmt.Errorf("insert: interval parameters must be positive: o=%v lambda=%v", o, lambda)
	}
	return math.Sqrt(2 * o / lambda), nil
}

// EstimateBodyCost estimates the cost of executing a statement list once.
// work(e) counts its (statically-evaluable) amount times Compute; loops
// count their body once (the per-iteration estimate the interval planner
// needs).
func EstimateBodyCost(body []mpl.Stmt, cm CostModel) float64 {
	total := 0.0
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Assign:
			total += cm.Compute
		case *mpl.Work:
			units := 1
			if lit, ok := st.Amount.(*mpl.IntLit); ok && lit.Value > 0 {
				units = lit.Value
			}
			total += float64(units) * cm.Compute
		case *mpl.Send, *mpl.Recv:
			total += cm.MessageDelay
		case *mpl.Bcast, *mpl.Reduce:
			// Root-side fan plus delivery: counted as two message delays.
			total += 2 * cm.MessageDelay
		case *mpl.Chkpt:
			total += cm.CheckpointOverhead
		case *mpl.While:
			total += cm.Compute + EstimateBodyCost(st.Body, cm)
		case *mpl.If:
			thenCost := EstimateBodyCost(st.Then, cm)
			elseCost := EstimateBodyCost(st.Else, cm)
			total += cm.Compute + math.Max(thenCost, elseCost)
		}
	}
	return total
}

// Plan reports what Phase I did.
type Plan struct {
	// Inserted lists the statement ids of newly added chkpt statements.
	Inserted []int
	// OptimalInterval is T_opt from Young's formula.
	OptimalInterval float64
	// IterationCost is the estimated cost of one outermost-loop iteration
	// (0 when the program has no loops).
	IterationCost float64
	// IterationsPerCheckpoint is the recommended number of iterations
	// between checkpoints, max(1, round(T_opt / IterationCost)). The
	// inserted checkpoints are unconditional (every iteration): skipping
	// iterations would require a data-dependent branch that the straight-
	// cut indexing of §2 cannot validate statically. The recommendation is
	// reported so callers can scale loop granularity instead.
	IterationsPerCheckpoint int
	// Equalized lists ids of chkpt statements added by equalization.
	Equalized []int
}

// InsertCheckpoints adds checkpoint statements to a program that has none:
// one at the top of each outermost loop body (the paper's canonical
// placement, Figure 1), or one at the start of the program when it is
// loop-free. Programs that already contain checkpoints are returned
// unchanged except for equalization (Phase I is optional, §3.1). The
// program's Body is replaced by an edited copy (mpl.Edit): whatever else
// shares its statements is left as it was.
func InsertCheckpoints(p *mpl.Program, cm CostModel) (*Plan, error) {
	plan := &Plan{}
	tOpt, err := YoungInterval(cm.CheckpointOverhead, cm.FailureRate)
	if err != nil {
		return nil, err
	}
	plan.OptimalInterval = tOpt

	hasChkpt := false
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Chkpt); ok {
			hasChkpt = true
			return false
		}
		return true
	})

	// The first outermost loop: its body, checkpoint included, is what
	// one iteration costs.
	first := slices.IndexFunc(p.Body, func(s mpl.Stmt) bool { _, ok := s.(*mpl.While); return ok })
	if !hasChkpt {
		e := p.Edit()
		defer e.Close()
		nextID := p.MaxStmtID() + 1
		for _, s := range p.Body {
			if _, ok := s.(*mpl.While); ok {
				e.Insert(mpl.Block{Owner: s.ID()}, 0, e.Chkpt(nextID))
				plan.Inserted = append(plan.Inserted, nextID)
				nextID++
			}
		}
		if first < 0 {
			e.Insert(mpl.Block{Owner: mpl.TopLevel}, 0, e.Chkpt(nextID))
			plan.Inserted = append(plan.Inserted, nextID)
		}
	}
	if first >= 0 {
		plan.IterationCost = EstimateBodyCost(p.Body[first].(*mpl.While).Body, cm)
	}

	if plan.IterationCost > 0 {
		k := int(math.Round(tOpt / plan.IterationCost))
		if k < 1 {
			k = 1
		}
		plan.IterationsPerCheckpoint = k
	} else {
		plan.IterationsPerCheckpoint = 1
	}

	eq, err := Equalize(p)
	if err != nil {
		return nil, err
	}
	plan.Equalized = eq
	return plan, nil
}

// maxEqualizeRounds bounds the equalization fixpoint; each round fixes at
// least one if statement, so the program's statement count bounds the real
// work.
const maxEqualizeRounds = 1000

// Equalize repairs checkpoint-count imbalances between if branches by
// prepending checkpoint statements to the lighter branch, until every path
// carries the same number of checkpoints (checkpoint enumeration becomes
// unambiguous). It returns the ids of the added statements. The program's
// Body is replaced by an edited copy, as InsertCheckpoints's is.
//
// Prepending (rather than appending) matters for Phase III convergence: a
// checkpoint at the very start of a branch can only be reached causally
// through the branch's dominating if node, so within one loop iteration it
// cannot sit downstream of a message and re-trigger the movement that
// emptied the branch in the first place.
func Equalize(p *mpl.Program) ([]int, error) {
	ifStmt, thenN, elseN := cfg.Unbalanced(p.Body)
	if ifStmt == nil {
		return nil, nil
	}
	e := p.Edit()
	defer e.Close()
	var added []int
	nextID := p.MaxStmtID() + 1
	for round := 0; ifStmt != nil; round++ {
		if round == maxEqualizeRounds {
			return nil, errors.New("insert: equalization did not converge")
		}
		lighter := mpl.Block{Owner: ifStmt.ID(), Else: thenN > elseN}
		for range max(thenN-elseN, elseN-thenN) {
			e.Insert(lighter, 0, e.Chkpt(nextID))
			added = append(added, nextID)
			nextID++
		}
		ifStmt, thenN, elseN = cfg.Unbalanced(p.Body)
	}
	return added, nil
}

// Coalesce removes redundant immediately-adjacent checkpoint statements
// (two chkpts with no intervening statement), which checkpoint movement
// can produce. It returns the number of statements removed. The program's
// Body is replaced by an edited copy, as InsertCheckpoints's is.
func Coalesce(p *mpl.Program) int {
	removed, _ := coalesce(p, false)
	return removed
}

// CoalesceUndoable is Coalesce that can be taken back: undo puts every
// removed statement back where it was, provided nothing else has touched
// the program in between; the lists it shortened, and the While and If
// nodes above them, stay the edit's copies. With nothing removed it
// returns (0, nil) and allocates nothing.
func CoalesceUndoable(p *mpl.Program) (removed int, undo func()) { return coalesce(p, true) }

// dup is a checkpoint statement that directly follows statement after, a
// checkpoint too, in its list.
type dup struct {
	after int
	ck    mpl.Stmt
}

func coalesce(p *mpl.Program, undoable bool) (int, func()) {
	dups := redundant(nil, p.Body)
	if len(dups) == 0 {
		return 0, nil
	}
	e := p.Edit()
	defer e.Close()
	for _, d := range dups {
		e.Remove(d.ck.ID())
	}
	if !undoable {
		return len(dups), nil
	}
	return len(dups), func() {
		e := p.Edit()
		defer e.Close()
		for _, d := range dups { // in program order: a run's first is back before its second
			b, i, _ := e.Locate(d.after)
			e.Insert(b, i+1, d.ck)
		}
	}
}

// redundant appends to dups, in program order, every checkpoint of body
// and the lists nested in it that directly follows another.
func redundant(dups []dup, body []mpl.Stmt) []dup {
	for i, s := range body {
		switch st := s.(type) {
		case *mpl.Chkpt:
			if i > 0 {
				if prev, ok := body[i-1].(*mpl.Chkpt); ok {
					dups = append(dups, dup{prev.ID(), st})
				}
			}
		case *mpl.While:
			dups = redundant(dups, st.Body)
		case *mpl.If:
			dups = redundant(redundant(dups, st.Then), st.Else)
		}
	}
	return dups
}

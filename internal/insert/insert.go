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
// message delay (§3.1's network-delay estimation), typically obtained from
// a netestim.Estimator.
package insert

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mpl"
	"repro/internal/netestim"
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

// CostModelFromEstimator builds a cost model whose message delay comes
// from live RTT measurements (§3.1: "before applying this phase, we
// estimate the message delay in the network"). The estimator must have
// observed at least one sample.
func CostModelFromEstimator(base CostModel, est *netestim.Estimator) (CostModel, error) {
	delay, err := est.OneWayDelay()
	if err != nil {
		return CostModel{}, fmt.Errorf("insert: estimate message delay: %w", err)
	}
	base.MessageDelay = delay.Seconds()
	return base, nil
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
// unchanged except for equalization (Phase I is optional, §3.1). The input
// program is mutated.
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

	nextID := p.MaxStmtID() + 1
	if !hasChkpt {
		var loops []*mpl.While
		for _, s := range p.Body { // outermost loops only
			if w, ok := s.(*mpl.While); ok {
				loops = append(loops, w)
			}
		}
		if len(loops) > 0 {
			for _, w := range loops {
				ck := &mpl.Chkpt{StmtBase: mpl.StmtBase{StmtID: nextID}}
				nextID++
				w.Body = append([]mpl.Stmt{ck}, w.Body...)
				plan.Inserted = append(plan.Inserted, ck.ID())
			}
			plan.IterationCost = EstimateBodyCost(loops[0].Body, cm)
		} else {
			ck := &mpl.Chkpt{StmtBase: mpl.StmtBase{StmtID: nextID}}
			nextID++
			p.Body = append([]mpl.Stmt{ck}, p.Body...)
			plan.Inserted = append(plan.Inserted, ck.ID())
		}
	} else {
		for _, s := range p.Body {
			if w, ok := s.(*mpl.While); ok {
				plan.IterationCost = EstimateBodyCost(w.Body, cm)
				break
			}
		}
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
// unambiguous). It returns the ids of the added statements. The program is
// mutated.
//
// Prepending (rather than appending) matters for Phase III convergence: a
// checkpoint at the very start of a branch can only be reached causally
// through the branch's dominating if node, so within one loop iteration it
// cannot sit downstream of a message and re-trigger the movement that
// emptied the branch in the first place.
func Equalize(p *mpl.Program) ([]int, error) {
	var added []int
	nextID := p.MaxStmtID() + 1
	for round := 0; round < maxEqualizeRounds; round++ {
		// Probe for imbalance directly instead of running cfg.Enumerate and
		// parsing its error: the fixpoint rounds of Phase III call Equalize
		// constantly, and the direct walk finds the same innermost-first
		// offending if statement without building an enumeration map.
		ifStmt := firstUnbalanced(p.Body)
		if ifStmt == nil {
			return added, nil
		}
		thenN := countChkpts(ifStmt.Then)
		elseN := countChkpts(ifStmt.Else)
		if thenN == elseN {
			return nil, fmt.Errorf("insert: equalization stuck at %s (counts already equal)", mpl.DescribeStmt(ifStmt))
		}
		deficit := thenN - elseN
		lighter := &ifStmt.Else
		if deficit < 0 {
			deficit = -deficit
			lighter = &ifStmt.Then
		}
		for i := 0; i < deficit; i++ {
			ck := &mpl.Chkpt{StmtBase: mpl.StmtBase{StmtID: nextID}}
			nextID++
			*lighter = append([]mpl.Stmt{ck}, *lighter...)
			added = append(added, ck.ID())
		}
	}
	return nil, errors.New("insert: equalization did not converge")
}

// firstUnbalanced finds the first if statement (innermost-first, in program
// order — matching cfg.Enumerate's error detection order) whose branches
// carry different checkpoint counts. Nil when every if is balanced, i.e.
// checkpoint enumeration is unambiguous.
func firstUnbalanced(body []mpl.Stmt) *mpl.If {
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.While:
			if f := firstUnbalanced(st.Body); f != nil {
				return f
			}
		case *mpl.If:
			if f := firstUnbalanced(st.Then); f != nil {
				return f
			}
			if f := firstUnbalanced(st.Else); f != nil {
				return f
			}
			if countChkpts(st.Then) != countChkpts(st.Else) {
				return st
			}
		}
	}
	return nil
}

// countChkpts counts checkpoint statements in a body, where loop bodies
// count once and balanced if branches count once (mirroring enumeration).
// For unbalanced branches it returns the maximum, which is what the
// deficit computation needs.
func countChkpts(body []mpl.Stmt) int {
	n := 0
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Chkpt:
			n++
		case *mpl.While:
			n += countChkpts(st.Body)
		case *mpl.If:
			tn, en := countChkpts(st.Then), countChkpts(st.Else)
			if en > tn {
				tn = en
			}
			n += tn
		}
	}
	return n
}

// Coalesce removes redundant immediately-adjacent checkpoint statements
// (two chkpts with no intervening statement), which checkpoint movement
// can produce. It returns the number of statements removed. The program is
// mutated.
func Coalesce(p *mpl.Program) int { return coalesce(&p.Body, nil) }

// CoalesceUndoable is Coalesce that can be taken back: undo restores every
// statement list Coalesce shortened, provided nothing else has touched the
// program in between.
func CoalesceUndoable(p *mpl.Program) (removed int, undo func()) {
	var saved []savedList
	removed = coalesce(&p.Body, &saved)
	return removed, func() {
		for _, sv := range saved {
			*sv.list = append((*sv.list)[:0], sv.stmts...)
		}
	}
}

// savedList is a statement list as it was before coalesce shortened it.
type savedList struct {
	list  *[]mpl.Stmt
	stmts []mpl.Stmt
}

// coalesce compacts *list in place. The removed statements stay in the
// backing array past the new length only until something overwrites them,
// so with saved non-nil each list is copied before its first removal.
func coalesce(list *[]mpl.Stmt, saved *[]savedList) int {
	body := *list
	removed := 0
	out := body[:0]
	prevChkpt := false
	for i, s := range body {
		if _, ok := s.(*mpl.Chkpt); ok {
			if prevChkpt {
				if saved != nil && len(out) == i { // nothing removed from this list yet
					*saved = append(*saved, savedList{list, append([]mpl.Stmt(nil), body...)})
				}
				removed++
				continue
			}
			prevChkpt = true
		} else {
			prevChkpt = false
			switch st := s.(type) {
			case *mpl.While:
				removed += coalesce(&st.Body, saved)
			case *mpl.If:
				removed += coalesce(&st.Then, saved) + coalesce(&st.Else, saved)
			}
		}
		out = append(out, s)
	}
	*list = out
	return removed
}

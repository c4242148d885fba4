package verify

import (
	"errors"
	"fmt"

	"repro/internal/trace"
	"repro/internal/zigzag"
)

// clockAuditLimit bounds the trace size (total events) for the full
// pairwise clock-vs-structure audit, which is O(E²·n).
const clockAuditLimit = 600

// HarnessError reports a disagreement between the independently
// implemented consistency deciders. For a full cut (one checkpoint per
// process) the four criteria — vector clocks, structural happened-before,
// the orphan-message criterion, and zigzag-path freedom — are provably
// equivalent, so any disagreement is a bug in this harness or the
// libraries under it, never a property of the program being checked.
type HarnessError struct {
	Index      int
	VClock     bool
	Structural bool
	Orphan     bool
	Zigzag     bool
	Detail     string
}

// Error implements error.
func (e *HarnessError) Error() string {
	if e.Detail != "" {
		return "verify: harness cross-validation failed: " + e.Detail
	}
	return fmt.Sprintf("verify: harness cross-validation failed at straight cut R_%d: vclock=%v structural=%v orphan=%v zigzag=%v",
		e.Index, e.VClock, e.Structural, e.Orphan, e.Zigzag)
}

// Violation is a theorem counterexample: a straight cut of one explored
// execution that is not a recovery line.
type Violation struct {
	Index int              // the straight cut R_Index
	Cut   trace.Cut        //
	A, B  trace.Checkpoint // witness: A happened before B
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("straight cut R_%d is not a recovery line: %v happened before %v", v.Index, v.A, v.B)
}

// CheckReport summarizes checking one execution.
type CheckReport struct {
	Indexes    []int // straight-cut indexes that existed and were checked
	Missing    []int // indexes taken by some processes but not all (R_i undefined)
	Violations []Violation
}

// CheckTrace asserts the paper's Theorem 3.2 on one finished execution:
// every straight cut R_i that exists is a recovery line. Each cut's
// consistency is decided four independent ways and the verdicts must
// agree exactly; a disagreement returns a HarnessError. Indexes that some
// process never checkpointed (R_i undefined) are reported in Missing —
// the caller decides whether that breaks its contract (it does for an
// unmutated transformed program).
func CheckTrace(tr *trace.Trace) (*CheckReport, error) {
	hb, err := trace.NewHB(tr)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	zz, err := zigzag.FromTrace(tr)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if tr.Len() <= clockAuditLimit {
		if err := hb.CheckClockConsistency(); err != nil {
			return nil, &HarnessError{Detail: "vector clocks disagree with event structure: " + err.Error()}
		}
	}
	ord := checkpointOrdinals(tr)
	rep := &CheckReport{}
	for _, i := range tr.CheckpointIndexes() {
		cut, err := tr.StraightCut(i)
		if errors.Is(err, trace.ErrNoCheckpoint) {
			rep.Missing = append(rep.Missing, i)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		vclk := trace.IsRecoveryLine(cut)
		structural := hb.CutConsistentStructural(cut)
		orphan := hb.CutConsistentByMessages(cut)
		zfree := zigzagFree(zz, cut, ord)
		if vclk != structural || vclk != orphan || vclk != zfree {
			return nil, &HarnessError{Index: i, VClock: vclk, Structural: structural, Orphan: orphan, Zigzag: zfree}
		}
		rep.Indexes = append(rep.Indexes, i)
		if !vclk {
			a, b, _ := trace.FirstViolation(cut)
			rep.Violations = append(rep.Violations, Violation{Index: i, Cut: cut, A: a, B: b})
		}
	}
	return rep, nil
}

// ordKey identifies a checkpoint event within an execution.
type ordKey struct{ proc, eventSeq int }

// checkpointOrdinals maps every checkpoint to its 1-based temporal ordinal
// on its process — the coordinate system of the zigzag analysis.
func checkpointOrdinals(tr *trace.Trace) map[ordKey]int {
	out := make(map[ordKey]int)
	for p, hist := range tr.Events() {
		k := 0
		for _, e := range hist {
			if e.Kind == trace.KindCheckpoint {
				k++
				out[ordKey{p, e.Seq}] = k
			}
		}
	}
	return out
}

// zigzagFree decides cut consistency the Netzer-Xu way: a full cut is
// consistent iff there is no zigzag path between any two (possibly equal)
// members — the p == q case is the Z-cycle check.
func zigzagFree(zz *zigzag.Analysis, cut trace.Cut, ord map[ordKey]int) bool {
	for _, a := range cut {
		for _, b := range cut {
			if zz.ZPath(a.Proc, ord[ordKey{a.Proc, a.EventSeq}], b.Proc, ord[ordKey{b.Proc, b.EventSeq}]) {
				return false
			}
		}
	}
	return true
}

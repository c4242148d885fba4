// Package core is the public entry point of the library: it runs the
// paper's three offline phases end to end on an MPL program.
//
//	Phase I   (internal/insert):  static checkpoint insertion and path
//	                              equalization, driven by an optimal-
//	                              interval model;
//	Phase II  (internal/match):   send/receive matching → extended CFG Ĝ
//	                              (Algorithm 3.1);
//	Phase III (internal/place):   checkpoint movement until every straight
//	                              cut of checkpoints is a recovery line in
//	                              any further execution (Algorithm 3.2,
//	                              Condition 1 / Theorem 3.2).
//
// The output program checkpoints with zero runtime coordination: processes
// execute chkpt statements locally, and the collection of the latest i-th
// checkpoints of every process — the straight cut R_i — is always a
// consistent recovery line.
package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/insert"
	"repro/internal/match"
	"repro/internal/mpl"
	"repro/internal/place"
)

// Config configures the pipeline. Phase I always selects intervals with
// the paper's cost constants (insert.DefaultCostModel), Phase II matches
// with match's default solver bounds, and Phase III's fixpoint has place's
// default bound.
type Config struct {
	// PreserveLoops enables the §3.3 loop optimization (DefaultConfig sets
	// it).
	PreserveLoops bool
	// SkipInsert disables Phase I entirely (the program must already
	// contain checkpoint statements).
	SkipInsert bool
}

// DefaultConfig is the recommended configuration.
var DefaultConfig = Config{PreserveLoops: true}

// Report is the outcome of the full pipeline.
type Report struct {
	// Program is the transformed program, safe to execute with
	// coordination-free checkpointing.
	Program *mpl.Program
	// Phase1 is the insertion plan (nil when SkipInsert).
	Phase1 *insert.Plan
	// Phase3 is the placement result, including initial violations, moves,
	// and loop-preserved orderings.
	Phase3 *place.Result
	// Enumeration maps checkpoint statement ids to straight-cut indexes in
	// the final program.
	Enumeration *cfg.Enumeration
}

// CheckpointCount returns the number of straight-cut indexes of the final
// program.
func (r *Report) CheckpointCount() int {
	if r.Enumeration == nil {
		return 0
	}
	return r.Enumeration.Count
}

// SendsLogged returns how many of the final program's send statements may
// use a channel Phase III did not prove quiet (mpl.Program.Quiet) — the
// runtime logs their messages there — and how many send statements it has.
// It speaks for the process counts Phase II's solver bounds; past them
// every send logs.
func (r *Report) SendsLogged() (logged, sends int) {
	mpl.Walk(r.Program.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Send); ok {
			sends++
		}
		return true
	})
	return sends - r.Phase3.QuietSends, sends
}

// Transform runs the three phases on a program. The input is not mutated.
func Transform(p *mpl.Program, conf Config) (*Report, error) {
	if err := mpl.Check(p); err != nil {
		return nil, fmt.Errorf("core: input program invalid: %w", err)
	}
	work := mpl.Clone(p)
	rep := &Report{}

	if !conf.SkipInsert {
		plan, err := insert.InsertCheckpoints(work, insert.DefaultCostModel)
		if err != nil {
			return nil, fmt.Errorf("core: phase I: %w", err)
		}
		rep.Phase1 = plan
	}

	placed, err := place.Ensure(work, place.Options{
		PreserveLoops: conf.PreserveLoops,
		// One arena per Transform: the skeleton's closures live in it for
		// the whole call, and noCross reuses it after the fixpoint.
		Arena: &cfg.Arena{},
		// work is already this call's private clone; Ensure may own it.
		AssumeOwned: true,
	})
	if err != nil {
		return nil, fmt.Errorf("core: phase III: %w", err)
	}
	rep.Phase3 = placed
	rep.Program = placed.Program
	rep.Enumeration = placed.Enumeration
	return rep, nil
}

// Verify checks Condition 1 on a program without transforming it: it
// returns the violations that would make some straight cut inconsistent.
// An empty slice means every straight cut of checkpoints is a recovery
// line in any execution (Theorem 3.2).
func Verify(p *mpl.Program, conf Config) ([]place.Violation, error) {
	violations, _, err := place.Check(p, place.Options{PreserveLoops: conf.PreserveLoops})
	return violations, err
}

// ExtendedDOT renders the extended CFG Ĝ of a program (control flow plus
// message edges) in Graphviz dot syntax — the paper's Figure 4 view.
func ExtendedDOT(p *mpl.Program) (string, error) {
	x, err := match.BuildExtended(p, match.Options{})
	if err != nil {
		return "", err
	}
	return x.G.DOT(p.Name, x.MessageEdgesAsCFG()), nil
}

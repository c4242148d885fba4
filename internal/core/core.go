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
}

// CheckpointCount returns the number of straight-cut indexes of the final
// program, enumerating it (cfg.EnumerateInto).
func (r *Report) CheckpointCount() int {
	var enum cfg.Enumeration
	if cfg.EnumerateInto(r.Program, &enum) != nil {
		return 0
	}
	return enum.Count
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

// Transform runs the three phases on a program. The input is not mutated:
// the phases edit by path copying (mpl.Edit), so the report's program
// shares every statement and block they left as it was, and Consts and
// Vars, with the input. The input must be a checked program, as every
// constructor makes one: mpl.Parse, mpl.Builder.Program and mpmd's merge
// run mpl.Check.
func Transform(p *mpl.Program, conf Config) (*Report, error) {
	rep := &Report{}
	work := p
	if !conf.SkipInsert {
		work = &mpl.Program{Name: p.Name, Consts: p.Consts, Vars: p.Vars, Body: p.Body}
		plan, err := insert.InsertCheckpoints(work, insert.DefaultCostModel)
		if err != nil {
			return nil, fmt.Errorf("core: phase I: %w", err)
		}
		rep.Phase1 = plan
	}

	// Phases II–III build in a workspace Ensure borrows from a pool and
	// gives back before it returns; what the report holds is its own.
	placed, err := place.Ensure(work, place.Options{PreserveLoops: conf.PreserveLoops})
	if err != nil {
		return nil, fmt.Errorf("core: phase III: %w", err)
	}
	rep.Phase3 = placed
	rep.Program = placed.Program
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

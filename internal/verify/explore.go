package verify

import (
	"fmt"

	"repro/internal/sim"
)

// ExploreOptions bounds a systematic exploration.
type ExploreOptions struct {
	// Depth bounds the number of BRANCHING decisions per schedule: states
	// where more than one non-slept process is enabled. Beyond the bound
	// the run completes deterministically (lowest enabled id first), so
	// every explored schedule still yields a full, checkable trace.
	Depth int
	// MaxSchedules caps the number of completed executions (0 = no cap).
	MaxSchedules int
	// Budget is the per-execution instruction budget (0 = DefaultBudget).
	Budget int
	// LogRestore records per-checkpoint local snapshots and the full send
	// log on every explored machine, enabling the restore-equivalence
	// checks (checkRestores) inside visit callbacks.
	LogRestore bool
}

// ExploreResult summarizes one exploration.
type ExploreResult struct {
	Executions int            // completed executions visited
	Signatures map[uint64]int // execution signature -> count
	Truncated  bool           // MaxSchedules cut the search off
}

// Confluent reports whether every explored execution produced the same
// per-process histories — the Kahn-network determinism that MPL programs
// (blocking receives from a specific source over reliable FIFO channels,
// asynchronous sends) must exhibit. A second signature is itself a
// correctness finding: it means scheduling leaked into the message
// structure, which the deterministic-replay story depends on not happening.
func (r *ExploreResult) Confluent() bool { return len(r.Signatures) <= 1 }

// DeadlockError is an exploration counterexample: a schedule after which
// some process waits forever. The schedule replays it via RunSchedule.
type DeadlockError struct {
	Schedule []int
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("verify: deadlock after %d steps (schedule %v)", len(e.Schedule), e.Schedule)
}

// Explore runs the compiled program under all message-delivery
// interleavings up to the branching bound — DPOR-lite: a depth-first
// search over schedule prefixes with sleep sets pruning interleavings
// that only commute independent transitions. visit is called once per
// completed execution with the finished machine (trace and schedule
// intact); a non-nil return aborts the search and is surfaced verbatim.
func Explore(code *sim.Code, n int, input func(rank, i int) int, opts ExploreOptions, visit func(*Machine) error) (*ExploreResult, error) {
	ex := &explorer{
		code:  code,
		n:     n,
		input: input,
		opts:  opts,
		visit: visit,
		res:   &ExploreResult{Signatures: make(map[uint64]int)},
	}
	m, err := ex.fresh()
	if err != nil {
		return ex.res, err
	}
	if err := ex.dfs(m, nil, 0); err != nil {
		return ex.res, err
	}
	return ex.res, nil
}

type explorer struct {
	code  *sim.Code
	n     int
	input func(rank, i int) int
	opts  ExploreOptions
	visit func(*Machine) error
	res   *ExploreResult
}

func (ex *explorer) fresh() (*Machine, error) {
	m, err := newMachine(ex.code, ex.n, ex.input, ex.opts.LogRestore)
	if err != nil {
		return nil, err
	}
	if ex.opts.Budget > 0 {
		m.budget = ex.opts.Budget
	}
	return m, nil
}

// replay builds a fresh machine advanced through the given prefix.
func (ex *explorer) replay(prefix []int) (*Machine, error) {
	m, err := ex.fresh()
	if err != nil {
		return nil, err
	}
	for i, p := range prefix {
		if err := m.Step(p); err != nil {
			return nil, fmt.Errorf("verify: replaying prefix step %d (proc %d): %w", i, p, err)
		}
	}
	return m, nil
}

func (ex *explorer) capped() bool {
	return ex.opts.MaxSchedules > 0 && ex.res.Executions >= ex.opts.MaxSchedules
}

func (ex *explorer) finish(m *Machine) error {
	ex.res.Executions++
	ex.res.Signatures[m.Signature()]++
	if ex.visit != nil {
		return ex.visit(m)
	}
	return nil
}

// dfs advances m to completion. Runs of single-choice states are walked
// inline (updating the sleep set after each executed transition); a state
// with several awake transitions is a branch point, recursed per choice
// with sleep-set pruning: after exploring transition p, p joins the sleep
// set of its later siblings, and a child's sleep set keeps only the
// transitions independent of the one just taken.
func (ex *explorer) dfs(m *Machine, sleep map[int]bool, branchings int) error {
	for {
		if ex.capped() {
			ex.res.Truncated = true
			return nil
		}
		if m.Done() {
			return ex.finish(m)
		}
		en := m.Enabled()
		if len(en) == 0 {
			return &DeadlockError{Schedule: m.Schedule()}
		}
		awake := awakeOf(en, sleep)
		if len(awake) == 0 {
			// Every enabled transition is asleep: this state's successors
			// are covered by sibling branches. Prune.
			return nil
		}
		if len(awake) == 1 || branchings >= ex.opts.Depth {
			p := awake[0]
			next := pruneSleep(m, sleep, p)
			if err := m.Step(p); err != nil {
				return fmt.Errorf("%w (schedule %v)", err, m.Schedule())
			}
			sleep = next
			continue
		}

		// Branch point.
		branchings++
		base := m.Schedule()
		var explored []int
		for _, p := range awake {
			if ex.capped() {
				ex.res.Truncated = true
				return nil
			}
			childSleep := pruneSleep(m, sleep, p)
			for _, q := range explored {
				if q != p && !m.Dependent(p, q) {
					childSleep[q] = true
				}
			}
			cm, err := ex.replay(base)
			if err != nil {
				return err
			}
			if err := cm.Step(p); err != nil {
				return fmt.Errorf("%w (schedule %v)", err, cm.Schedule())
			}
			if err := ex.dfs(cm, childSleep, branchings); err != nil {
				return err
			}
			explored = append(explored, p)
		}
		return nil
	}
}

// awakeOf filters the enabled set by the sleep set, preserving ascending
// id order.
func awakeOf(enabled []int, sleep map[int]bool) []int {
	var out []int
	for _, p := range enabled {
		if !sleep[p] {
			out = append(out, p)
		}
	}
	return out
}

// pruneSleep derives the sleep set after executing p at m's current
// state: sleeping transitions stay asleep only while independent of the
// executed one.
func pruneSleep(m *Machine, sleep map[int]bool, p int) map[int]bool {
	out := make(map[int]bool, len(sleep))
	for q := range sleep {
		if q != p && !m.Dependent(p, q) {
			out[q] = true
		}
	}
	return out
}

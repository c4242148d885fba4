package verify

import (
	"fmt"
	"sort"

	"repro/internal/mpl"
	"repro/internal/trace"
)

// This file is the harness's fifth cross-validation axis: restore
// equivalence. The four trace deciders prove every straight cut is a
// CONSISTENT global state; this axis additionally proves the cut is a
// USABLE one — re-instantiating the machine from the cut's local snapshots
// plus the reconstructed in-flight channel state and running to completion
// reproduces the original FinalVars exactly. It runs each cut twice: once
// from the full recorded environments (the deterministic-replay theorem)
// and once from environments pruned to the per-site liveness manifests with
// dead variables reset to their initial value (the pruning soundness
// theorem). Any divergence, in either mode, is a counterexample.

// RestoreDivergence is one failed restore replay.
type RestoreDivergence struct {
	Index    int    // straight-cut index restored from
	Instance int    // instance restored from
	Mode     string // "full" or "pruned"
	Detail   string
}

// String renders the divergence.
func (d RestoreDivergence) String() string {
	return fmt.Sprintf("restore from cut R_%d (instance %d, %s): %s", d.Index, d.Instance, d.Mode, d.Detail)
}

// restoreModes selects which reconstruction modes checkRestores replays.
type restoreModes int

const (
	modeFull restoreModes = 1 << iota
	modePruned
	modeBoth = modeFull | modePruned
)

// checkRestores replays every straight cut of a finished, restore-logged
// execution in the given modes and compares the replayed FinalVars against
// the original run's. manifests overrides the compiled per-site manifests
// (nil uses code.Manifests) — the prune-drop mutation operator passes
// sabotaged manifests here. Returns the divergences and the number of cut
// restores replayed.
func (m *Machine) checkRestores(manifests map[int][]string, modes restoreModes) ([]RestoreDivergence, int, error) {
	if !m.logRestore {
		return nil, 0, fmt.Errorf("verify: machine was not restore-logged")
	}
	if manifests == nil {
		manifests = m.code.Manifests
	}
	want := m.FinalVars()

	var divs []RestoreDivergence
	cuts := 0
	err := m.forEachCut(func(idx, k int, cut []*chkptRecord) error {
		for _, mode := range []struct {
			name   string
			on     restoreModes
			pruned bool
		}{{"full", modeFull, false}, {"pruned", modePruned, true}} {
			if modes&mode.on == 0 {
				continue
			}
			cuts++
			detail, err := m.replayCut(cut, mode.pruned, manifests, want)
			if err != nil {
				return err
			}
			if detail != "" {
				divs = append(divs, RestoreDivergence{
					Index: idx, Instance: k, Mode: mode.name, Detail: detail,
				})
			}
		}
		return nil
	})
	return divs, cuts, err
}

// forEachCut calls fn with every straight cut of a finished, restore-logged
// execution, in index then instance order: the cut R_idx at instance k
// exists when every process recorded (idx, k), and cut[p] is p's record.
// The slice is reused between calls.
func (m *Machine) forEachCut(fn func(idx, k int, cut []*chkptRecord) error) error {
	// Group each process's checkpoint records by straight-cut index. Per-
	// process records for one index arrive in instance order, so the k-th
	// entry has instance k.
	byIndex := make([]map[int][]*chkptRecord, m.n)
	for p := 0; p < m.n; p++ {
		byIndex[p] = make(map[int][]*chkptRecord)
		for _, rec := range m.chkpts[p] {
			byIndex[p][rec.index] = append(byIndex[p][rec.index], rec)
		}
	}
	common := func(idx int) int {
		c := len(byIndex[0][idx])
		for p := 1; p < m.n; p++ {
			c = min(c, len(byIndex[p][idx]))
		}
		return c
	}
	var indexes []int
	for idx := range byIndex[0] {
		if common(idx) > 0 {
			indexes = append(indexes, idx)
		}
	}
	sort.Ints(indexes)
	cut := make([]*chkptRecord, m.n)
	for _, idx := range indexes {
		for k := 0; k < common(idx); k++ {
			for p := 0; p < m.n; p++ {
				cut[p] = byIndex[p][idx][k]
			}
			if err := fn(idx, k, cut); err != nil {
				return err
			}
		}
	}
	return nil
}

// crossingChannels adds to acc the channels with a message in flight across
// some straight cut of a finished, restore-logged execution: what the
// cross-clear mutation operator may mark quiet.
func (m *Machine) crossingChannels(acc map[Channel]bool) {
	_ = m.forEachCut(func(_, _ int, cut []*chkptRecord) error {
		for a := 0; a < m.n; a++ {
			for b := 0; b < m.n; b++ {
				if a != b && cut[b].recvSeq[a] < cut[a].sendSeq[b] {
					acc[Channel{N: m.n, From: a, To: b}] = true
				}
			}
		}
		return nil
	})
}

// replayCut re-instantiates the machine from one straight cut and runs it
// to completion with the deterministic lowest-id rule (confluence makes any
// completion order equivalent). Returns a non-empty description when the
// replay's FinalVars differ from want, and an error only for harness-level
// failures (inconsistent cut reconstruction, budget exhaustion).
func (m *Machine) replayCut(cut []*chkptRecord, pruned bool, manifests map[int][]string, want []map[string]int) (string, error) {
	rm, missing, err := m.restoredMachine(cut, pruned, manifests)
	if err != nil || missing != "" {
		return missing, err
	}
	for !rm.Done() {
		en := rm.Enabled()
		if len(en) == 0 {
			return fmt.Sprintf("restored run deadlocked after %d steps", len(rm.schedule)), nil
		}
		if err := rm.Step(en[0]); err != nil {
			return fmt.Sprintf("restored run failed: %v", err), nil
		}
	}
	got := rm.FinalVars()
	for p := range want {
		for name, w := range want[p] {
			if g, ok := got[p][name]; !ok || g != w {
				return fmt.Sprintf("process %d: %s = %d after restore, want %d", p, name, got[p][name], w), nil
			}
		}
		if len(got[p]) != len(want[p]) {
			return fmt.Sprintf("process %d: %d variables after restore, want %d", p, len(got[p]), len(want[p])), nil
		}
	}
	return "", nil
}

// restoredMachine builds a machine positioned at the given straight cut:
// process states from the cut's local snapshots (full, or pruned to the
// site manifest with dead variables reset to initial values) and channels
// holding exactly the messages in flight across the cut, rebuilt from the
// send log. A message in flight that the log holds no record of is what the
// runtime refuses such a line for; missing names it.
func (m *Machine) restoredMachine(cut []*chkptRecord, pruned bool, manifests map[int][]string) (rm *Machine, missing string, err error) {
	rm = &Machine{
		code:   m.code,
		n:      m.n,
		procs:  make([]*procState, m.n),
		chans:  make([][][]msg, m.n),
		tr:     trace.NewTrace(m.n),
		budget: DefaultBudget,
	}
	for p := 0; p < m.n; p++ {
		rec := cut[p]
		var inputFn func(int) int
		if m.input != nil {
			rank := p
			inputFn = func(i int) int { return m.input(rank, i) }
		}
		// NewEnv zero-initializes every declared variable — the "dead
		// variables restore to their declared initial values" contract.
		env := mpl.NewEnv(m.code.Prog, p, m.n, inputFn)
		manifest := manifests[rec.stmtID]
		if pruned && manifest != nil {
			for _, name := range manifest {
				if v, ok := rec.vars[name]; ok {
					env.Vars[name] = v
				}
			}
		} else {
			for k, v := range rec.vars {
				env.Vars[k] = v
			}
		}
		instances := make(map[int]int, len(rec.instances))
		for k, v := range rec.instances {
			instances[k] = v
		}
		rm.procs[p] = &procState{
			pc:        rec.pc,
			env:       env,
			clock:     rec.clock.Clone(),
			sendSeq:   append([]int(nil), rec.sendSeq...),
			recvSeq:   append([]int(nil), rec.recvSeq...),
			instances: instances,
		}
	}
	// In-flight channel state: everything sender a had sent to receiver b
	// at its cut point that b had not yet received at its own. A receiver
	// ahead of its sender would be an orphan message — exactly what the
	// four cut deciders prove cannot happen on a straight cut of a
	// transformed program — so it is a harness error here, not a finding.
	for a := 0; a < m.n; a++ {
		rm.chans[a] = make([][]msg, m.n)
		for b := 0; b < m.n; b++ {
			if a == b {
				continue
			}
			sent, rcvd := cut[a].sendSeq[b], cut[b].recvSeq[a]
			if rcvd > sent {
				return nil, "", fmt.Errorf("verify: cut R_%d is not reconstructible: process %d received %d messages from %d which had sent %d",
					cut[a].index, b, rcvd, a, sent)
			}
			for _, mg := range m.sendLog[a][b] {
				if mg.seq >= rcvd && mg.seq < sent {
					rm.chans[a][b] = append(rm.chans[a][b], mg)
				}
			}
			if want := rcvd + len(rm.chans[a][b]); want < sent { // a quiet channel: its log is empty
				return nil, fmt.Sprintf("channel %d->%d: message #%d is in flight and has no log record", a, b, want), nil
			}
		}
	}
	for p := 0; p < m.n; p++ {
		if err := rm.normalize(p); err != nil {
			return nil, "", fmt.Errorf("verify: normalizing restored process %d: %w", p, err)
		}
	}
	return rm, "", nil
}

// liveNonZero scans a finished, restore-logged execution for (checkpoint
// site, manifest variable) pairs a prune-drop mutation can actually
// corrupt, so equivalent mutants are never generated. Two conditions,
// both required at some recorded instance:
//
//   - The recorded value differs from the variable's initial value.
//     Dropping a variable that is zero at every instance is invisible —
//     the pruned restore reconstructs exactly the recorded value.
//
//   - The zeroed value can be observed: the instance's first-access
//     classification (recorded dynamically as the clean run executed past
//     the checkpoint) says the variable was read before any redefinition
//     (readFirst), or never touched again (unresolved — it survives to
//     exit, where FinalVars observes every variable). Liveness alone is
//     too coarse here: a variable can be live at the site through a path
//     the concrete execution never takes — a guarded-boundary receive
//     that is in range on every rank holding a non-initial value, a
//     branch not taken — and dropping it is then invisible.
func (m *Machine) liveNonZero(acc map[int]map[string]bool) {
	for p := 0; p < m.n; p++ {
		for _, rec := range m.chkpts[p] {
			for _, name := range m.code.Manifests[rec.stmtID] {
				if rec.vars[name] == 0 {
					continue
				}
				if !rec.readFirst[name] && !rec.unresolved[name] {
					continue
				}
				set := acc[rec.stmtID]
				if set == nil {
					set = make(map[string]bool)
					acc[rec.stmtID] = set
				}
				set[name] = true
			}
		}
	}
}

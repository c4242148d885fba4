package verify

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"

	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/par"
	"repro/internal/sim"
)

// Options configures a harness run.
type Options struct {
	Seed         int64
	Programs     int   // programs to generate and verify
	Depth        int   // branching bound per schedule
	MaxSchedules int   // explored executions per (program, nproc); 0 = 64
	Nprocs       []int // process counts; nil = {2, 3}
	Mutate       bool  // also run the mutation (no-vacuous-pass) mode
	Workers      int   // parallelism over programs; 0 = GOMAXPROCS
}

func (o Options) nprocs() []int {
	if len(o.Nprocs) == 0 {
		return []int{2, 3}
	}
	return o.Nprocs
}

func (o Options) maxSchedules() int {
	if o.MaxSchedules <= 0 {
		return 64
	}
	return o.MaxSchedules
}

// Counterexample is one harness finding, with everything needed to replay
// it deterministically: Generate(SubSeed) rebuilds the program,
// core.Transform(…, core.DefaultConfig) the transformed form, and
// RunSchedule(code, Nproc, DefaultInput, Schedule) the execution.
type Counterexample struct {
	SubSeed  int64
	Nproc    int
	Schedule []int
	Kind     string // "violation", "deadlock", "missing-index", "non-confluent", "restore-divergence", "error"
	Detail   string
}

// String renders the counterexample with its replay coordinates.
func (c Counterexample) String() string {
	return fmt.Sprintf("[%s] subseed=%d nproc=%d schedule=%v: %s",
		c.Kind, c.SubSeed, c.Nproc, c.Schedule, c.Detail)
}

// KindStats aggregates mutation outcomes for one operator.
type KindStats struct {
	Total         int
	Refused       int // the runtime refused the mutant's process count (sim.ErrUnprovedN)
	CaughtStatic  int // checkpoint enumeration rejected the mutant
	CaughtRuntime int // the mutant failed to execute (never expected)
	CaughtCut     int // the straight-cut index contract changed
	CaughtDynamic int // an explored execution violated the theorem
	Escaped       []string
}

// Caught sums the detections.
func (s *KindStats) Caught() int {
	return s.Refused + s.CaughtStatic + s.CaughtRuntime + s.CaughtCut + s.CaughtDynamic
}

// Rate returns the detection rate in [0, 1] (1 for no mutants).
func (s *KindStats) Rate() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.Caught()) / float64(s.Total)
}

// Result aggregates a harness run.
type Result struct {
	Programs          int
	Executions        int
	CutsChecked       int
	RestoresChecked   int // cut restores replayed (full + pruned) for FinalVars equivalence
	TransformRejected int // generated programs outside Phase III's repair set, regenerated
	Counterexamples   []Counterexample
	Mutation          map[MutationKind]*KindStats // non-nil when Options.Mutate
}

// DefaultInput is the deterministic input builtin bound to every verified
// execution: pseudo-data that varies by rank and index but never by
// schedule.
func DefaultInput(rank, i int) int {
	v := (rank*31 + i*7) % 13
	if v < 0 {
		v += 13
	}
	return v
}

// Run generates Options.Programs random programs, transforms each with the
// full three-phase pipeline, explores the transformed program's schedule
// space at every configured process count, and checks Theorem 3.2 on every
// explored execution. With Mutate set it additionally sabotages each
// transformed program one checkpoint at a time and verifies the checker
// catches the sabotage. Programs are verified in parallel (par.Map); the
// result is deterministic for a given (Seed, Programs, Depth, Nprocs).
func Run(ctx context.Context, opts Options) (*Result, error) {
	subs := make([]int64, opts.Programs)
	for k := range subs {
		subs[k] = SubSeed(opts.Seed, k)
	}
	perProg, err := par.Map(ctx, opts.Workers, subs, func(ctx context.Context, _ int, sub int64) (*Result, error) {
		return runOne(sub, opts)
	})
	if err != nil {
		return nil, err
	}
	total := &Result{}
	if opts.Mutate {
		total.Mutation = make(map[MutationKind]*KindStats)
	}
	for _, r := range perProg {
		total.Programs += r.Programs
		total.Executions += r.Executions
		total.CutsChecked += r.CutsChecked
		total.RestoresChecked += r.RestoresChecked
		total.TransformRejected += r.TransformRejected
		total.Counterexamples = append(total.Counterexamples, r.Counterexamples...)
		for kind, ks := range r.Mutation {
			tk := total.Mutation[kind]
			if tk == nil {
				tk = &KindStats{}
				total.Mutation[kind] = tk
			}
			tk.Total += ks.Total
			tk.Refused += ks.Refused
			tk.CaughtStatic += ks.CaughtStatic
			tk.CaughtRuntime += ks.CaughtRuntime
			tk.CaughtCut += ks.CaughtCut
			tk.CaughtDynamic += ks.CaughtDynamic
			tk.Escaped = append(tk.Escaped, ks.Escaped...)
		}
	}
	return total, nil
}

// retryStride derives replacement sub-seeds when a generated program
// falls outside Phase III's repair set and must be regenerated.
const retryStride = int64(0x5DEECE66D)

// maxGenAttempts bounds regeneration per program slot.
const maxGenAttempts = 8

// runOne verifies a single generated program at every process count.
func runOne(sub int64, opts Options) (*Result, error) {
	res := &Result{Programs: 1}
	if opts.Mutate {
		res.Mutation = make(map[MutationKind]*KindStats)
	}
	var rep *core.Report
	var lastErr error
	for attempt := 0; attempt < maxGenAttempts; attempt++ {
		seed := sub + int64(attempt)*retryStride
		r, err := core.Transform(Generate(seed), core.DefaultConfig)
		if err == nil {
			sub, rep = seed, r
			break
		}
		lastErr = err
		res.TransformRejected++
	}
	if rep == nil {
		res.Counterexamples = append(res.Counterexamples, Counterexample{
			SubSeed: sub, Kind: "error",
			Detail: fmt.Sprintf("transform failed for %d consecutive regenerations: %v", maxGenAttempts, lastErr),
		})
		return res, nil
	}
	code, err := sim.Compile(rep.Program)
	if err != nil {
		res.Counterexamples = append(res.Counterexamples, Counterexample{
			SubSeed: sub, Kind: "error", Detail: "compile failed: " + err.Error(),
		})
		return res, nil
	}
	// indexSets[n] is the straight-cut contract at process count n: which
	// indexes a correct execution checks. The mutation mode compares
	// mutant runs against it. profile accumulates the (checkpoint site,
	// variable) pairs observed with non-initial values, feeding the
	// prune-drop operator's equivalent-mutant filter.
	indexSets := make(map[int]map[int]bool)
	profile := make(map[int]map[string]bool)
	crossing := make(map[Channel]bool)
	for _, n := range opts.nprocs() {
		idx, err := verifyProgram(res, sub, code, n, opts, profile, crossing)
		if err != nil {
			return nil, err
		}
		indexSets[n] = idx
	}
	if opts.Mutate {
		runMutation(res, sub, rep.Program, code, profile, crossing, indexSets, opts)
	}
	return res, nil
}

// verifyProgram explores one (program, nproc) pair, checking every
// execution, and returns the set of straight-cut indexes checked. Besides
// the four trace deciders it replays every straight cut's restore — full
// and liveness-pruned — and asserts FinalVars equivalence (the fifth
// axis), recording non-initial live values into profile and the channels
// seen with a message in flight across a straight cut into crossing along
// the way.
func verifyProgram(res *Result, sub int64, code *sim.Code, n int, opts Options, profile map[int]map[string]bool, crossing map[Channel]bool) (map[int]bool, error) {
	indexes := make(map[int]bool)
	exOpts := ExploreOptions{Depth: opts.Depth, MaxSchedules: opts.maxSchedules(), LogRestore: true}
	er, err := Explore(code, n, DefaultInput, exOpts, func(m *Machine) error {
		res.Executions++
		chk, err := CheckTrace(m.Trace())
		if err != nil {
			return err
		}
		res.CutsChecked += len(chk.Indexes)
		for _, i := range chk.Indexes {
			indexes[i] = true
		}
		if len(chk.Missing) > 0 {
			res.Counterexamples = append(res.Counterexamples, Counterexample{
				SubSeed: sub, Nproc: n, Schedule: m.Schedule(), Kind: "missing-index",
				Detail: fmt.Sprintf("straight cuts %v undefined: some process skipped them", chk.Missing),
			})
		}
		for _, v := range chk.Violations {
			res.Counterexamples = append(res.Counterexamples, Counterexample{
				SubSeed: sub, Nproc: n, Schedule: m.Schedule(), Kind: "violation",
				Detail: v.String(),
			})
		}
		divs, cuts, err := m.checkRestores(nil, modeBoth)
		if err != nil {
			return err
		}
		res.RestoresChecked += cuts
		for _, d := range divs {
			res.Counterexamples = append(res.Counterexamples, Counterexample{
				SubSeed: sub, Nproc: n, Schedule: m.Schedule(), Kind: "restore-divergence",
				Detail: d.String(),
			})
		}
		m.liveNonZero(profile)
		m.crossingChannels(crossing)
		return nil
	})
	if err != nil {
		if de, ok := err.(*DeadlockError); ok {
			res.Counterexamples = append(res.Counterexamples, Counterexample{
				SubSeed: sub, Nproc: n, Schedule: de.Schedule, Kind: "deadlock",
				Detail: "generated program deadlocked",
			})
			return indexes, nil
		}
		if _, ok := err.(*HarnessError); ok {
			return nil, fmt.Errorf("subseed %d, nproc %d: %w", sub, n, err)
		}
		res.Counterexamples = append(res.Counterexamples, Counterexample{
			SubSeed: sub, Nproc: n, Kind: "error", Detail: err.Error(),
		})
		return indexes, nil
	}
	if !er.Confluent() {
		res.Counterexamples = append(res.Counterexamples, Counterexample{
			SubSeed: sub, Nproc: n, Kind: "non-confluent",
			Detail: fmt.Sprintf("%d distinct execution signatures across %d schedules (MPL programs must be schedule-deterministic)",
				len(er.Signatures), er.Executions),
		})
	}
	return indexes, nil
}

// runMutation sabotages the transformed program one checkpoint at a time
// — plus, per checkpoint site, one live manifest variable at a time, one
// crossing channel's log at a time, and once its rank guards' ranks — and
// records how each mutant was (or was not) caught.
func runMutation(res *Result, sub int64, transformed *mpl.Program, code *sim.Code, profile map[int]map[string]bool, crossing map[Channel]bool, indexSets map[int]map[int]bool, opts Options) {
	muts := AllMutants(transformed)
	muts = append(muts, PruneDropMutants(code.Manifests, profile)...)
	muts = append(muts, CrossClearMutants(transformed, crossing)...)
	muts = append(muts, RankShiftMutants(transformed)...)
	for _, mut := range muts {
		ks := res.Mutation[mut.Kind]
		if ks == nil {
			ks = &KindStats{}
			res.Mutation[mut.Kind] = ks
		}
		ks.Total++
		var outcome string
		switch mut.Kind {
		case MutPruneDrop:
			outcome = classifyPruneDrop(mut, code, indexSets, opts)
		case MutCrossClear:
			outcome = classifyCrossClear(mut, opts)
		case MutRankShift:
			outcome = classifyRankShift(mut, opts)
		default:
			outcome = classifyMutant(mut, indexSets, opts)
		}
		switch outcome {
		case "refused":
			ks.Refused++
		case "static":
			ks.CaughtStatic++
		case "runtime":
			ks.CaughtRuntime++
		case "cut":
			ks.CaughtCut++
		case "dynamic":
			ks.CaughtDynamic++
		default:
			ks.Escaped = append(ks.Escaped,
				fmt.Sprintf("subseed=%d %s", sub, mut.Desc))
		}
	}
}

// classifyMutant runs the detection ladder on one mutant: static
// (enumeration rejects it), dynamic (an explored execution violates the
// theorem), cut contract (the straight-cut index set changed; a nil set
// is no contract), runtime (execution failed outright), or "escaped".
func classifyMutant(mut Mutant, indexSets map[int]map[int]bool, opts Options) string {
	code, err := sim.Compile(mut.Prog)
	if err != nil {
		return "static"
	}
	outcome := "escaped"
	exOpts := ExploreOptions{Depth: opts.Depth, MaxSchedules: opts.maxSchedules()}
	ns := make([]int, 0, len(indexSets))
	for n := range indexSets {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		want := indexSets[n]
		got := make(map[int]bool)
		sawMissing := false
		sawViolation := false
		_, err := Explore(code, n, DefaultInput, exOpts, func(m *Machine) error {
			chk, err := CheckTrace(m.Trace())
			if err != nil {
				return err
			}
			for _, i := range chk.Indexes {
				got[i] = true
			}
			if len(chk.Missing) > 0 {
				sawMissing = true
			}
			if len(chk.Violations) > 0 {
				sawViolation = true
			}
			return nil
		})
		if err != nil {
			return "runtime"
		}
		if sawViolation {
			return "dynamic" // strongest verdict: stop immediately
		}
		if sawMissing || want != nil && !sameIndexSet(got, want) {
			outcome = "cut"
		}
	}
	return outcome
}

// errCaught aborts an exploration early once a mutant is detected.
var errCaught = errors.New("verify: mutant caught")

// classifyPruneDrop runs one prune-drop mutant: the program and its
// execution are untouched (so the trace deciders and cut contract cannot
// fire), but the manifests handed to the pruned restore replays are
// sabotaged — DropVar is removed from site DropStmt's live set. Detection
// must come from the restore-equivalence axis alone.
func classifyPruneDrop(mut Mutant, code *sim.Code, indexSets map[int]map[int]bool, opts Options) string {
	manifests := maps.Clone(code.Manifests)
	dropped := make([]string, 0, len(code.Manifests[mut.DropStmt]))
	for _, name := range code.Manifests[mut.DropStmt] {
		if name != mut.DropVar {
			dropped = append(dropped, name)
		}
	}
	manifests[mut.DropStmt] = dropped
	return restoreCatches(code, manifests, modePruned, indexSets, opts)
}

// classifyCrossClear runs one cross-clear mutant at the one process count
// it changes: the program executes as before, but the restore replays
// rebuild channels from a log that holds no record of the quiet channel's
// messages. Detection must come from the restore-equivalence axis alone.
func classifyCrossClear(mut Mutant, opts Options) string {
	code, err := sim.Compile(mut.Prog)
	if err != nil {
		return "static"
	}
	return restoreCatches(code, nil, modeFull, map[int]map[int]bool{mut.Channel.N: nil}, opts)
}

// classifyRankShift runs one rank-shift mutant at its process count N:
// "refused" when the runtime's proof gate turns N away, else the trace
// ladder's verdict there, with no cut contract (none was recorded at N).
func classifyRankShift(mut Mutant, opts Options) string {
	if errors.Is(sim.CheckProof(mut.Prog, mut.N), sim.ErrUnprovedN) {
		return "refused"
	}
	return classifyMutant(mut, map[int]map[int]bool{mut.N: nil}, opts)
}

// restoreCatches explores code at every process count of indexSets with
// restore logging and reports "dynamic" as soon as a cut restore in the
// given modes diverges, "escaped" when none does.
func restoreCatches(code *sim.Code, manifests map[int][]string, modes restoreModes, indexSets map[int]map[int]bool, opts Options) string {
	exOpts := ExploreOptions{Depth: opts.Depth, MaxSchedules: opts.maxSchedules(), LogRestore: true}
	ns := make([]int, 0, len(indexSets))
	for n := range indexSets {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		_, err := Explore(code, n, DefaultInput, exOpts, func(m *Machine) error {
			divs, _, err := m.checkRestores(manifests, modes)
			if err != nil {
				return err
			}
			if len(divs) > 0 {
				return errCaught
			}
			return nil
		})
		if errors.Is(err, errCaught) {
			return "dynamic"
		}
		if err != nil {
			return "runtime"
		}
	}
	return "escaped"
}

// sameIndexSet compares two straight-cut index sets.
func sameIndexSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !b[i] {
			return false
		}
	}
	return true
}

// MutationKinds returns the operators in a stable reporting order.
func MutationKinds(m map[MutationKind]*KindStats) []MutationKind {
	kinds := make([]MutationKind, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

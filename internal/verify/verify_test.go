package verify

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(seed)
		b := Generate(seed)
		if mpl.Format(a) != mpl.Format(b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if err := mpl.Check(a); err != nil {
			t.Fatalf("seed %d: generated program invalid: %v", seed, err)
		}
	}
}

// TestMachineAgreesWithRuntime replays transformed generated programs on
// both the verification machine (deterministic schedule) and the real
// concurrent runtime, and requires identical final variables: the machine
// is only trustworthy as a theorem-checking vehicle if it implements the
// same semantics as the system under test.
func TestMachineAgreesWithRuntime(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rep, err := core.Transform(Generate(seed), core.DefaultConfig)
		if err != nil {
			t.Fatalf("seed %d: transform: %v", seed, err)
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for _, n := range []int{2, 3, 4} {
			m, err := RunSchedule(code, n, DefaultInput, nil)
			if err != nil {
				t.Fatalf("seed %d n=%d: machine run: %v", seed, n, err)
			}
			res, err := sim.Run(sim.Config{Program: rep.Program, Nproc: n, Input: DefaultInput})
			if err != nil {
				t.Fatalf("seed %d n=%d: sim run: %v", seed, n, err)
			}
			if got, want := m.FinalVars(), res.FinalVars; !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d n=%d: machine vars %v, runtime vars %v", seed, n, got, want)
			}
		}
	}
}

// ringProgram runs TWO rounds of a ring shift with checkpoints between.
// Two rounds matter: a process's second send can be enabled while its
// neighbour still holds the first message undelivered, and that co-enabled
// send/recv pair on one channel is where delivery interleavings genuinely
// branch (a single round has exactly one Mazurkiewicz trace).
func ringProgram(t *testing.T) *mpl.Program {
	t.Helper()
	b := mpl.NewBuilder("ring")
	b.Vars("a", "tmp", "j")
	b.Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1)))
	b.Assign("j", mpl.Int(0))
	b.While(mpl.Lt(mpl.V("j"), mpl.Int(2)), func(b *mpl.Builder) {
		b.Chkpt()
		b.Send(mpl.Mod(mpl.Add(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "a")
		b.Recv(mpl.Mod(mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "tmp")
		b.Chkpt()
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("tmp")))
		b.Assign("j", mpl.Add(mpl.V("j"), mpl.Int(1)))
	})
	return b.MustProgram()
}

func TestExploreCoversInterleavingsAndConfluence(t *testing.T) {
	code, err := sim.Compile(ringProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(code, 3, DefaultInput, ExploreOptions{Depth: 8, MaxSchedules: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 2 {
		t.Fatalf("explored %d executions, want several (real interleaving freedom)", res.Executions)
	}
	if !res.Confluent() {
		t.Fatalf("ring program not confluent: %d signatures over %d executions",
			len(res.Signatures), res.Executions)
	}
}

func TestExploreSleepSetsPrune(t *testing.T) {
	// Two disjoint pairs communicating independently: (0->1) and (2->3).
	// The message deliveries commute, so sleep sets should collapse the
	// interleavings of independent transitions: far fewer executions than
	// the naive product, and with depth 0 exactly one.
	b := mpl.NewBuilder("disjoint")
	b.Vars("a", "tmp")
	b.Assign("a", mpl.Rank())
	b.If(mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)), func(b *mpl.Builder) {
		b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "a")
	})
	b.If(mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(1)), func(b *mpl.Builder) {
		b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "tmp")
	})
	code, err := sim.Compile(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(code, 4, DefaultInput, ExploreOptions{Depth: 16, MaxSchedules: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 1 {
		t.Fatalf("independent sends/recvs explored %d executions, want 1 (sleep sets should prune all commutations)", res.Executions)
	}
}

func TestExploreDetectsDeadlock(t *testing.T) {
	// Both processes receive first: a classic cycle.
	b := mpl.NewBuilder("deadlock")
	b.Vars("a", "tmp")
	b.IfElse(mpl.Eq(mpl.Rank(), mpl.Int(0)),
		func(b *mpl.Builder) {
			b.Recv(mpl.Int(1), "tmp")
			b.Send(mpl.Int(1), "a")
		},
		func(b *mpl.Builder) {
			b.Recv(mpl.Int(0), "tmp")
			b.Send(mpl.Int(0), "a")
		})
	code, err := sim.Compile(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Explore(code, 2, DefaultInput, ExploreOptions{Depth: 4}, nil)
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
}

// figure2Program reconstructs the paper's Figure 2: the checkpoint sits
// before the send on rank 0 but after the matching receive on rank 1, so
// the straight cut R_1 is NOT a recovery line.
func figure2Program(t *testing.T) *mpl.Program {
	t.Helper()
	b := mpl.NewBuilder("figure2")
	b.Vars("a", "tmp")
	b.Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1)))
	b.IfElse(mpl.Eq(mpl.Rank(), mpl.Int(0)),
		func(b *mpl.Builder) {
			b.Chkpt()
			b.Send(mpl.Int(1), "a")
		},
		func(b *mpl.Builder) {
			b.Recv(mpl.Int(0), "tmp")
			b.Chkpt()
		})
	return b.MustProgram()
}

func TestCheckTraceFindsFigure2Violation(t *testing.T) {
	code, err := sim.Compile(figure2Program(t))
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	_, err = Explore(code, 2, DefaultInput, ExploreOptions{Depth: 4}, func(m *Machine) error {
		chk, err := CheckTrace(m.Trace())
		if err != nil {
			return err
		}
		violations += len(chk.Violations)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Fatal("Figure 2 skew not detected: the checker passed an unsafe placement")
	}
}

func TestRunScheduleReplaysSignature(t *testing.T) {
	code, err := sim.Compile(ringProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	var schedules [][]int
	var sigs []uint64
	_, err = Explore(code, 3, DefaultInput, ExploreOptions{Depth: 6, MaxSchedules: 8}, func(m *Machine) error {
		schedules = append(schedules, m.Schedule())
		sigs = append(sigs, m.Signature())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sched := range schedules {
		m, err := RunSchedule(code, 3, DefaultInput, sched)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if m.Signature() != sigs[i] {
			t.Fatalf("replay %d: signature mismatch", i)
		}
	}
}

func TestTheoremHoldsOnGeneratedPrograms(t *testing.T) {
	progs := 6
	if testing.Short() {
		progs = 3
	}
	res, err := Run(context.Background(), Options{
		Seed: 1, Programs: progs, Depth: 4, MaxSchedules: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexamples) != 0 {
		for _, c := range res.Counterexamples {
			t.Errorf("counterexample: %s", c)
		}
		t.FailNow()
	}
	if res.CutsChecked == 0 {
		t.Fatal("harness checked zero straight cuts — vacuous run")
	}
}

func TestMutationModeCatchesSabotage(t *testing.T) {
	progs := 3
	if testing.Short() {
		progs = 2
	}
	res, err := Run(context.Background(), Options{
		Seed: 7, Programs: progs, Depth: 2, MaxSchedules: 8, Mutate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexamples) != 0 {
		for _, c := range res.Counterexamples {
			t.Errorf("unmutated counterexample: %s", c)
		}
		t.FailNow()
	}
	del := res.Mutation[MutDelete]
	if del == nil || del.Total == 0 {
		t.Fatal("no delete mutants generated")
	}
	if del.Rate() < 0.95 {
		t.Fatalf("delete detection rate %.2f < 0.95; escaped: %v", del.Rate(), del.Escaped)
	}
	skew := res.Mutation[MutSkew]
	if skew != nil && skew.Total > 0 && skew.CaughtDynamic == 0 {
		t.Errorf("no skew mutant was caught DYNAMICALLY (total %d): the Figure 2 path is untested", skew.Total)
	}
	for _, kind := range []MutationKind{MutRankShift, MutLoopExit, MutTripShift} {
		if ks := res.Mutation[kind]; ks != nil && len(ks.Escaped) > 0 {
			t.Errorf("%s mutants neither refused nor caught: %v", kind, ks.Escaped)
		}
	}
}

// A rank-shift mutant moves the ranks its guards name past the process
// counts Phase II checks: far's twin (ROADMAP 24), an exchange between
// ranks 2 and 3, becomes far itself, on ranks 18 and 19. The mutant of the
// transformed twin, whose repair holds at no n past 17, runs at n = 21,
// where the runtime refuses it; the original is untouched.
func TestRankShiftMutantsNeverPass(t *testing.T) {
	const twin = `
program twin
var x, y, iter
proc {
    x = rank + 1
    iter = 0
    while iter < 4 {
        if rank == 2 { chkpt  send(3, x)  recv(3, y) }
        else { if rank == 3 { recv(2, y)  send(2, x)  chkpt }
               else { chkpt } }
        x = x + y
        iter = iter + 1
    }
}
`
	parse := func(src string) *mpl.Program {
		p, err := mpl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	far := parse(strings.NewReplacer("2", "18", "3", "19").Replace(twin))
	if muts := RankShiftMutants(parse(twin)); len(muts) != 1 || mpl.Format(muts[0].Prog) != mpl.Format(far) {
		t.Fatalf("the twin's mutants are not far: %+v", muts)
	}
	rep, err := core.Transform(parse(twin), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	orig := mpl.Format(rep.Program)
	muts := RankShiftMutants(rep.Program)
	if len(muts) != 1 || muts[0].N != 21 {
		t.Fatalf("want 1 mutant, run at n = 21: %+v", muts)
	}
	if mpl.Format(rep.Program) != orig {
		t.Fatal("mutation aliased the original program")
	}
	if out := classifyRankShift(muts[0], Options{Depth: 2, MaxSchedules: 8}); out != "refused" {
		t.Errorf("%s: verdict %q, want refused", muts[0].Desc, out)
	}
}

func TestMutantsAreStructurallyDistinct(t *testing.T) {
	rep, err := core.Transform(Generate(3), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	orig := mpl.Format(rep.Program)
	muts := AllMutants(rep.Program)
	if len(muts) == 0 {
		t.Fatal("no mutants for a transformed program")
	}
	for _, mu := range muts {
		if mpl.Format(mu.Prog) == orig {
			t.Errorf("%s: mutant identical to original", mu.Desc)
		}
		if mpl.Format(rep.Program) != orig {
			t.Fatalf("%s: mutation aliased the original program", mu.Desc)
		}
	}
}

// The loop operators rebuild loopgap's and aligngap's shapes inside a
// program the transform certified, a uniform loop holding a checkpoint
// whose ring orders each iteration's checkpoints after the last's: each
// mutant leaves the original as it was, and Phase III's check reports it.
// A loop-exit mutant is unsafe at run time too, where no other message
// runs: rank 1's first iteration waits for rank 0 to leave the loop.
func TestLoopMutantsAreReported(t *testing.T) {
	const src = `
program looped
var x, i
proc {
    i = 0
    while i < 2 {
        chkpt
        x = x + 1
        send((rank + 1) % nproc, x)
        recv((rank + nproc - 1) % nproc, x)
        i = i + 1
    }
}
`
	transform := func(src string) *mpl.Program {
		p, err := mpl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Program
	}
	p := transform(src)
	orig := mpl.Format(p)
	exits, shifts := LoopExitMutants(p), TripShiftMutants(p)
	if len(exits) != 1 || len(shifts) != 1 {
		t.Fatalf("%d loop-exit and %d trip-shift mutants, want one of each", len(exits), len(shifts))
	}
	if mpl.Format(p) != orig {
		t.Fatal("mutation aliased the original program")
	}
	for _, mut := range append(exits, shifts...) {
		if out := classifyLoopMutant(mut, nil, Options{Depth: 2, MaxSchedules: 8}); out != "static" {
			t.Errorf("%s: verdict %q, want static\n%s", mut.Desc, out, mpl.Format(mut.Prog))
		}
	}
	quiet := transform(strings.NewReplacer("send((rank + 1) % nproc, x)", "", "recv((rank + nproc - 1) % nproc, x)", "").Replace(src))
	exit := LoopExitMutants(quiet)[0]
	if out := classifyMutant(exit, map[int]map[int]bool{2: nil, 3: nil}, Options{Depth: 2, MaxSchedules: 8}); out != "dynamic" {
		t.Errorf("%s: the trace ladder says %q, want dynamic", exit.Desc, out)
	}
}

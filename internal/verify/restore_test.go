package verify

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/sim"
)

// restoreRing is a 2-iteration ring exchange where every rank checkpoints
// at the top of each iteration, before any communication — so every cut is
// consistent and every process's a, v, iter are in the site manifest.
func restoreRing(t *testing.T) *sim.Code {
	t.Helper()
	prog := mpl.NewBuilder("restorering").
		Vars("a", "v", "iter").
		Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1))).
		Assign("iter", mpl.Int(0)).
		While(mpl.Lt(mpl.V("iter"), mpl.Int(2)), func(b *mpl.Builder) {
			b.Chkpt()
			b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "a")
			b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "v")
			b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("v")))
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
	code, err := sim.Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return code
}

// TestCheckRestoresClean: on a correct program, every explored schedule's
// every cut must restore — full AND pruned — to the original FinalVars.
func TestCheckRestoresClean(t *testing.T) {
	code := restoreRing(t)
	for _, n := range []int{2, 3} {
		cuts := 0
		_, err := Explore(code, n, DefaultInput, ExploreOptions{Depth: 6, LogRestore: true}, func(m *Machine) error {
			divs, c, err := m.checkRestores(nil, modeBoth)
			if err != nil {
				return err
			}
			if len(divs) > 0 {
				t.Errorf("n=%d schedule %v: unexpected divergence %v", n, m.Schedule(), divs[0])
			}
			cuts += c
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: Explore: %v", n, err)
		}
		if cuts == 0 {
			t.Fatalf("n=%d: no cut restores replayed", n)
		}
	}
}

// TestCheckRestoresCatchesDroppedLiveVar: sabotaging the manifest — the
// prune-drop mutation — must surface as a pruned-mode divergence, while the
// full-mode replays stay clean (they never consult the manifest).
func TestCheckRestoresCatchesDroppedLiveVar(t *testing.T) {
	code := restoreRing(t)
	var site int
	for id, manifest := range code.Manifests {
		site = id
		has := false
		for _, name := range manifest {
			has = has || name == "a"
		}
		if !has {
			t.Fatalf("manifest %v at site #%d does not keep a", manifest, id)
		}
	}
	sabotaged := map[int][]string{site: {"iter", "v"}} // drops "a"

	caught := false
	_, err := Explore(code, 2, DefaultInput, ExploreOptions{Depth: 6, LogRestore: true}, func(m *Machine) error {
		divs, _, err := m.checkRestores(sabotaged, modeBoth)
		if err != nil {
			return err
		}
		for _, d := range divs {
			if d.Mode != "pruned" {
				t.Errorf("divergence in %s mode: %v (only pruned replays see the manifest)", d.Mode, d)
			}
			caught = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if !caught {
		t.Fatal("dropping live variable a from the manifest went undetected")
	}
}

// TestCheckRestoresRequiresLogging: the axis refuses machines that were not
// recording snapshots and send logs.
func TestCheckRestoresRequiresLogging(t *testing.T) {
	code := restoreRing(t)
	m, err := NewMachine(code, 2, DefaultInput)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, _, err := m.checkRestores(nil, modeBoth); err == nil {
		t.Fatal("checkRestores on an unlogged machine must error")
	}
}

// TestPruneDropMutantsFilter: the generator must propose exactly the
// (site, variable) pairs the profile marks, in deterministic order.
func TestPruneDropMutantsFilter(t *testing.T) {
	manifests := map[int][]string{3: {"a", "iter"}, 7: {"a"}}
	profile := map[int]map[string]bool{3: {"a": true}, 7: {"a": true}}
	muts := PruneDropMutants(manifests, profile)
	if len(muts) != 2 {
		t.Fatalf("got %d mutants, want 2: %v", len(muts), muts)
	}
	if muts[0].DropStmt != 3 || muts[0].DropVar != "a" || muts[1].DropStmt != 7 {
		t.Errorf("unexpected mutants %v", muts)
	}
	for _, mut := range muts {
		if mut.Kind != MutPruneDrop || mut.Prog != nil {
			t.Errorf("mutant %v: want Kind prune-drop with nil Prog", mut)
		}
	}
	// iter at site 3 was never marked (equivalent drop) — not generated.
	if got := PruneDropMutants(manifests, map[int]map[string]bool{}); len(got) != 0 {
		t.Errorf("empty profile generated %v", got)
	}
}

// Transform's quiet channels are sound: over the corpus and 120 generated
// programs, at 2, 3 and 4 processes, no explored straight cut has a message
// in flight on one — every cut still restores from a log that holds no
// record of their messages. And it is not vacuous: most programs hold some
// channel quiet.
func TestQuietChannelsAreNeverInFlight(t *testing.T) {
	progs := make([]*mpl.Program, 0, 130)
	for _, p := range corpus.All() {
		progs = append(progs, p)
	}
	for seed := int64(0); seed < 120; seed++ {
		progs = append(progs, Generate(seed))
	}
	quiet := 0
	for _, p := range progs {
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			continue // outside Phase III's repair set
		}
		if len(rep.Program.Quiet) > 0 {
			quiet++
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4} {
			_, err := Explore(code, n, DefaultInput, ExploreOptions{Depth: 3, MaxSchedules: 8, LogRestore: true}, func(m *Machine) error {
				divs, _, err := m.checkRestores(nil, modeFull)
				if err == nil && len(divs) > 0 {
					t.Errorf("%s at n=%d, schedule %v: %v", p.Name, n, m.Schedule(), divs[0])
				}
				return err
			})
			if _, deadlock := err.(*DeadlockError); err != nil && !deadlock { // the irregular program's data-dependent peer
				t.Fatalf("%s at n=%d: %v", p.Name, n, err)
			}
		}
	}
	t.Logf("%d of %d programs hold a channel quiet", quiet, len(progs))
	if quiet < len(progs)/2 {
		t.Errorf("only %d of %d programs hold a channel quiet", quiet, len(progs))
	}
}

// A cross-clear mutant marks quiet a channel an explored run saw a message
// in flight on across a straight cut; the restore axis catches it. The
// ring's wrap-around channel n−1 → 0 crosses (rank n−1 sends before its
// checkpoint, rank 0 receives after its own); the Jacobi's channels never
// do, so it has no mutant.
func TestCrossClearMutantsAreCaught(t *testing.T) {
	opts := Options{Depth: 4, MaxSchedules: 16}
	for _, tc := range []struct {
		prog *mpl.Program
		want []Channel
	}{{corpus.Ring(3), []Channel{{2, 1, 0}, {3, 2, 0}}}, {corpus.JacobiFig2(3), nil}} {
		rep, err := core.Transform(tc.prog, core.DefaultConfig)
		if err != nil {
			t.Fatal(err)
		}
		code, err := sim.Compile(rep.Program)
		if err != nil {
			t.Fatal(err)
		}
		crossing := make(map[Channel]bool)
		for _, n := range []int{2, 3} {
			if _, err := Explore(code, n, DefaultInput, ExploreOptions{Depth: opts.Depth, MaxSchedules: opts.MaxSchedules, LogRestore: true}, func(m *Machine) error {
				m.crossingChannels(crossing)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		muts := CrossClearMutants(rep.Program, crossing)
		var got []Channel
		for _, mu := range muts {
			got = append(got, mu.Channel)
			if o := classifyCrossClear(mu, opts); o != "dynamic" {
				t.Errorf("%s: %s: %s, want caught dynamically", tc.prog.Name, mu.Desc, o)
			}
			c := mu.Channel
			if !mu.Prog.Quiet.Has(c.N, c.From, c.To) || rep.Program.Quiet.Has(c.N, c.From, c.To) {
				t.Errorf("%s: %s: the mutant does not add the channel", tc.prog.Name, mu.Desc)
			}
			mu.Prog.Quiet = slices.Clone(mu.Prog.Quiet)
			for i, w := range rep.Program.Quiet {
				mu.Prog.Quiet[i] &^= w
			}
			if added := slices.IndexFunc(mu.Prog.Quiet, func(w uint64) bool { return w != 0 }); added < 0 ||
				bits.OnesCount64(mu.Prog.Quiet[added]) != 1 || slices.ContainsFunc(mu.Prog.Quiet[added+1:], func(w uint64) bool { return w != 0 }) {
				t.Errorf("%s: %s: Quiet %x, the program's %x: want one channel added", tc.prog.Name, mu.Desc, mu.Prog.Quiet, rep.Program.Quiet)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: cross-clear mutants on %v, want %v", tc.prog.Name, got, tc.want)
		}
	}
}

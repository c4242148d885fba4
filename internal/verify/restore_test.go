package verify

import (
	"testing"

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

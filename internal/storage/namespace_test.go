package storage

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/vclock"
)

func nsSnap(proc, idx, inst, tick int) Snapshot {
	clk := make(vclock.VC, 4)
	clk[proc] = uint64(tick)
	return Snapshot{
		Proc: proc, CFGIndex: idx, Instance: inst, Clock: clk,
		Vars: map[string]int{"x": 1000*tick + 100*proc + 10*idx + inst},
	}
}

func TestNamespaceTwoJobsOneStore(t *testing.T) {
	// Regression for the fleet's shared-store collision: two jobs with
	// identical shapes save identical (proc, index, instance) keys into one
	// backing store. Raw sharing makes the second save ErrDuplicate;
	// namespaced, both land, and each job reads back only its own state.
	for _, tc := range []struct {
		name  string
		inner func(t *testing.T) Store
	}{
		{"memory", func(t *testing.T) Store { return NewMemory() }},
		{"incremental", func(t *testing.T) Store { return NewIncremental(4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := tc.inner(t)
			jobA, err := NewNamespace(inner, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			jobB, err := NewNamespace(inner, 1, 2)
			if err != nil {
				t.Fatal(err)
			}

			for p := 0; p < 2; p++ {
				if err := jobA.Save(nsSnap(p, 1, 1, 10)); err != nil {
					t.Fatalf("job A save p%d: %v", p, err)
				}
				// Same keys from job B must NOT collide.
				if err := jobB.Save(nsSnap(p, 1, 1, 20)); err != nil {
					t.Fatalf("job B save p%d: %v", p, err)
				}
			}
			// ...but a re-save within one job still does.
			if err := jobA.Save(nsSnap(0, 1, 1, 10)); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("intra-job duplicate: err = %v, want ErrDuplicate", err)
			}

			// Each job reads back its own snapshot under its own proc number.
			gotA, err := jobA.Get(1, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := jobB.Latest(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if gotA.Proc != 1 || gotB.Proc != 1 {
				t.Errorf("procs = %d, %d; want un-shifted 1, 1", gotA.Proc, gotB.Proc)
			}
			if gotA.Vars["x"] == gotB.Vars["x"] {
				t.Errorf("jobs read the same snapshot back: %v", gotA.Vars)
			}
			if want := nsSnap(1, 1, 1, 10).Vars["x"]; gotA.Vars["x"] != want {
				t.Errorf("job A x = %d, want %d", gotA.Vars["x"], want)
			}

			// List is scoped to the job.
			for _, job := range []*Namespace{jobA, jobB} {
				snaps, err := job.List(0)
				if err != nil {
					t.Fatal(err)
				}
				if len(snaps) != 1 || snaps[0].Proc != 0 {
					t.Errorf("List(0) = %+v, want one proc-0 snapshot", snaps)
				}
			}

			// Deleting job B's state does not touch job A's.
			for p := 0; p < 2; p++ {
				if err := jobB.Delete(p, 1, 1); err != nil {
					t.Fatalf("job B delete p%d: %v", p, err)
				}
			}
			if _, err := jobB.Latest(1, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("job B Latest after delete: err = %v, want ErrNotFound", err)
			}
			if _, err := jobA.Get(1, 1, 1); err != nil {
				t.Errorf("job A lost its snapshot to job B's delete: %v", err)
			}
		})
	}
}

func TestNamespaceIndexesScopedToJob(t *testing.T) {
	inner := NewMemory()
	jobA, _ := NewNamespace(inner, 0, 2)
	jobB, _ := NewNamespace(inner, 1, 2)

	// Job A has index 1 on both procs; job B only on proc 0. The straight
	// cut candidate {1} belongs to A alone — the raw store's Indexes would
	// see 4 distinct procs and report nothing, or worse, mix jobs.
	for p := 0; p < 2; p++ {
		if err := jobA.Save(nsSnap(p, 1, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jobB.Save(nsSnap(0, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}

	idxA, err := jobA.Indexes(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idxA, []int{1}) {
		t.Errorf("job A Indexes = %v, want [1]", idxA)
	}
	idxB, err := jobB.Indexes(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxB) != 0 {
		t.Errorf("job B Indexes = %v, want none (proc 1 has no snapshot)", idxB)
	}
}

func TestNamespaceRejectsOutOfRange(t *testing.T) {
	ns, err := NewNamespace(NewMemory(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Save(nsSnap(2, 1, 1, 1)); err == nil {
		t.Error("Save(proc=2) accepted in a 2-proc namespace")
	}
	if _, err := ns.List(-1); err == nil {
		t.Error("List(-1) accepted")
	}
	for _, n := range []int{3, 0, -1} {
		if _, err := ns.Indexes(n); err == nil {
			t.Errorf("Indexes(%d) accepted in a 2-proc namespace", n)
		}
	}
	// Both processes hold index 1, so the walk would reach process 2.
	for p := 0; p < 2; p++ {
		if err := ns.Save(nsSnap(p, 1, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ns.Indexes(3); err == nil {
		t.Error("Indexes(3) accepted in a 2-proc namespace holding a common cut")
	}
	if _, err := NewNamespace(NewMemory(), -1, 2); err == nil {
		t.Error("negative job accepted")
	}
}

// TestNamespaceForwardsScrubber: a corrupt record in job A's view must
// quarantine through A's namespace WITHOUT touching job B's healthy
// state, and A's report must come back in A's own process numbering.
func TestNamespaceForwardsScrubber(t *testing.T) {
	st := NewIncremental(4)
	jobA, err := NewNamespace(st, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := NewNamespace(st, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if err := jobA.Save(nsSnap(p, 0, 0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := jobB.Save(nsSnap(p, 0, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Damage job A's proc-1 snapshot (backing proc number 1).
	if err := st.Tamper(1, 0, 0, func(v map[string]int) { v["x"]++ }); err != nil {
		t.Fatal(err)
	}

	scr, ok := any(jobA).(Scrubber)
	if !ok {
		t.Fatal("namespace does not forward Scrubber; fleet quarantine silently no-ops")
	}
	rep, err := scr.Scrub()
	if err != nil {
		t.Fatalf("Scrub through namespace: %v", err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("Quarantined = %+v, want exactly job A's damaged record", rep.Quarantined)
	}
	// The ref must be in JOB-LOCAL numbering: backing proc 1 is A's proc 1.
	if got := rep.Quarantined[0]; got.Proc != 1 || got.CFGIndex != 0 || got.Instance != 0 {
		t.Fatalf("quarantined ref %+v not translated to job-local numbering", got)
	}
	// Job A's damaged key is gone and savable again...
	if _, err := jobA.Get(1, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("jobA.Get(damaged) = %v, want ErrNotFound after scrub", err)
	}
	if err := jobA.Save(nsSnap(1, 0, 0, 2)); err != nil {
		t.Fatalf("jobA re-save after scrub: %v", err)
	}
	// ...and job B's state was never touched.
	for p := 0; p < 2; p++ {
		if _, err := jobB.Get(p, 0, 0); err != nil {
			t.Fatalf("jobB.Get(%d,0,0) after A's scrub: %v", p, err)
		}
	}
}

// TestNamespaceScrubScopesReport: damage in job B's range, scrubbed
// through job A, heals the shared store but is reported to A only as
// collateral — B's key space never appears in A's report.
func TestNamespaceScrubScopesReport(t *testing.T) {
	st := NewIncremental(4)
	jobA, _ := NewNamespace(st, 0, 2)
	jobB, _ := NewNamespace(st, 1, 2)
	if err := jobB.Save(nsSnap(0, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// Damage job B's proc-0 snapshot (backing proc 2).
	if err := st.Tamper(2, 0, 0, func(v map[string]int) { v["x"]++ }); err != nil {
		t.Fatal(err)
	}
	rep, err := jobA.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("job A's report leaks job B's keys: %+v", rep.Quarantined)
	}
	if rep.Collateral != 1 {
		t.Fatalf("Collateral = %d, want 1 (B's damage healed as a side effect)", rep.Collateral)
	}
	// The shared pass still healed B's namespace.
	if _, err := jobB.Get(0, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("jobB damaged key after A's scrub = %v, want ErrNotFound", err)
	}
}

// TestNamespaceScrubNonScrubberInner: over a plain memory store the scrub
// is a clean no-op, not a panic or an error.
func TestNamespaceScrubNonScrubberInner(t *testing.T) {
	ns, err := NewNamespace(NewMemory(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ns.Scrub()
	if err != nil {
		t.Fatalf("Scrub over non-scrubber inner: %v", err)
	}
	if len(rep.Quarantined) != 0 || rep.Collateral != 0 {
		t.Fatalf("no-op scrub returned non-empty report: %+v", rep)
	}
}

// A damaged checkpoint is still a key: Namespace.Indexes must name the cut
// and leave finding out that it no longer loads to the recovery ladder, as
// every unwrapped store's Indexes does (DESIGN decision 19). Building the
// key set from the strict List turned one damaged record into ErrCorrupt
// for the whole selection.
func TestNamespaceIndexesCountsDamagedKey(t *testing.T) {
	inc := NewIncremental(4)
	ns, err := NewNamespace(inc, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		for inst := 0; inst < 2; inst++ {
			if err := ns.Save(nsSnap(p, 1, inst, inst+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := inc.Tamper(2+1, 1, 1, func(v map[string]int) { v["x"]++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Get(1, 1, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of damaged snapshot: err = %v, want ErrCorrupt", err)
	}
	if _, err := ns.List(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("List stays strict: err = %v, want ErrCorrupt", err)
	}
	if got, err := ns.Indexes(2); err != nil || !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Indexes(2) = %v, %v; want [1]", got, err)
	}
}

// Keys falls back to List for a store that cannot name its keys on its own.
func TestKeysFallsBackToList(t *testing.T) {
	mem := NewMemory()
	for _, s := range []Snapshot{nsSnap(0, 1, 0, 1), nsSnap(0, 2, 0, 2), nsSnap(1, 1, 0, 1)} {
		if err := mem.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	want := []Key{{0, 1, 0}, {0, 2, 0}}
	for name, st := range map[string]Store{"lister": mem, "list only": struct{ Store }{mem}} {
		got, err := Keys(st, 0)
		SortKeys(got)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Keys = %v, %v; want %v", name, got, err, want)
		}
	}
}

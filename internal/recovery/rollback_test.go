package recovery_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/mpl"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// rollbackStores opens one store of every kind.
func rollbackStores(t *testing.T) map[string]storage.Store {
	t.Helper()
	ws, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	return map[string]storage.Store{
		"memory": storage.NewMemory(), "incremental": storage.NewIncremental(2), "wal": ws,
	}
}

// channels reads the counts of every channel p→q at a rollback's line as
// sim.Network.ResetForRecovery does: sent[p][q] is line[p].Peers.At(q).Sent,
// recvd[p][q] is line[q].Peers.At(p).Recvd, and both are 0 from scratch.
func channels(rb *recovery.Rolled, n int) (sent, recvd [][]int) {
	sent, recvd = make([][]int, n), make([][]int, n)
	for p := range n {
		sent[p], recvd[p] = make([]int, n), make([]int, n)
		for q := range n {
			if rb.Line != nil {
				sent[p][q], recvd[p][q] = rb.Line.Snapshots[p].Peers.At(q).Sent, rb.Line.Snapshots[q].Peers.At(p).Recvd
			}
		}
	}
	return sent, recvd
}

// history is what each of two processes saved, in order; its position is
// the tick its channel counters grow with. No member of a straight cut
// received more than the other had sent, so every straight cut is
// consistent and recovery.Progress ranks it.
var history = []storage.Key{
	{CFGIndex: 1, Instance: 0}, {CFGIndex: 2, Instance: 0},
	{CFGIndex: 1, Instance: 1}, {CFGIndex: 2, Instance: 1},
	{CFGIndex: 1, Instance: 2},
}

// ahead is one more checkpoint of process 1, past every common cut.
var ahead = storage.Key{CFGIndex: 2, Instance: 2}

func TestRollback(t *testing.T) {
	all := func(p int) []storage.Key {
		var ks []storage.Key
		for _, k := range history {
			ks = append(ks, storage.Key{Proc: p, CFGIndex: k.CFGIndex, Instance: k.Instance})
		}
		return ks
	}
	cases := []struct {
		name string
		// rot reports whether a checkpoint is silently damaged on its way
		// into the store.
		rot         func(k storage.Key) bool
		line        *storage.Key // the line's (index, instance); nil = from scratch
		degraded    int
		quarantined int
		survivors   [2][]storage.Key
	}{
		{
			name: "clean line",
			rot:  func(storage.Key) bool { return false },
			line: &storage.Key{CFGIndex: 1, Instance: 2},
			// Only what process 1 saved past the line goes.
			survivors: [2][]storage.Key{all(0), all(1)},
		},
		{
			name: "degraded line",
			// The best cut R_1#2 lost process 0's member: one candidate is
			// skipped, and R_2#1 outranks the older R_1#1.
			rot:         func(k storage.Key) bool { return k == storage.Key{Proc: 0, CFGIndex: 1, Instance: 2} },
			line:        &storage.Key{CFGIndex: 2, Instance: 1},
			degraded:    1,
			quarantined: 1,
			survivors:   [2][]storage.Key{all(0)[:4], all(1)[:4]},
		},
		{
			name: "from scratch",
			// Nothing of process 0 loads: scrub takes its snapshots, the
			// discard takes process 1's.
			rot:         func(k storage.Key) bool { return k.Proc == 0 },
			quarantined: len(history),
		},
	}
	for _, tc := range cases {
		for kind, inner := range rollbackStores(t) {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				// Healthy checkpoints go straight into the store; damaged
				// ones through the chaos wrapper, which flips every save it
				// sees and is the handle Rollback works through.
				st := chaos.New(inner, 1, chaos.Rates{BitFlip: 1}, nil)
				for p := 0; p < 2; p++ {
					saved := history
					if p == 1 {
						saved = append(saved[:len(saved):len(saved)], ahead)
					}
					// As in the runtime, the counters a snapshot carries count
					// every save up to and including its own.
					var instances storage.Counts
					for tick, k := range saved {
						instances = counted(instances, k)
						s := storage.Snapshot{
							Proc: p, CFGIndex: k.CFGIndex, Instance: k.Instance,
							Vars: map[string]int{"x": tick},
							N:    2, Peers: rowOf([]int{2 * tick, 3 * tick}, []int{tick, 2 * tick}),
							Instances: instances,
						}
						into := inner
						if tc.rot(s.Key()) {
							into = st
						}
						if err := into.Save(s); err != nil {
							t.Fatal(err)
						}
					}
				}
				rb, err := recovery.Rollback(st, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if q := len(rb.Scrub.Quarantined); q != tc.quarantined {
					t.Errorf("quarantined %d, want %d", q, tc.quarantined)
				}
				// Channel p→q's counts at the line: what process p saved at
				// tick t carries (2+q)·t sent to q and (1+p)·t received from p.
				wantSent, wantRecvd := [][]int{{0, 0}, {0, 0}}, [][]int{{0, 0}, {0, 0}}
				if tc.line == nil {
					if rb.Line != nil {
						t.Fatalf("line = %+v, want none", rb.Line)
					}
				} else {
					if rb.Line == nil {
						t.Fatal("no line")
					}
					for p, s := range rb.Line.Snapshots {
						if s.CFGIndex != tc.line.CFGIndex || s.Instance != tc.line.Instance {
							t.Errorf("proc %d restores %s, want index=%d instance=%d", p, s.Key(), tc.line.CFGIndex, tc.line.Instance)
						}
					}
					tick := slices.Index(history, *tc.line)
					for p := range 2 {
						for q := range 2 {
							wantSent[p][q], wantRecvd[p][q] = (2+q)*tick, (1+p)*tick
						}
					}
					if rb.Line.Degraded != tc.degraded {
						t.Errorf("Degraded = %d, want %d", rb.Line.Degraded, tc.degraded)
					}
				}
				if sent, recvd := channels(rb, 2); !reflect.DeepEqual(sent, wantSent) || !reflect.DeepEqual(recvd, wantRecvd) {
					t.Errorf("channels count %v sent and %v received, want %v and %v", sent, recvd, wantSent, wantRecvd)
				}
				for p, want := range tc.survivors {
					if kind != "incremental" {
						// Memory and the WAL keep the newest two complete
						// cuts of each index: R_1#2 retired R_1#0.
						want = slices.DeleteFunc(slices.Clone(want), func(k storage.Key) bool {
							return k.CFGIndex == 1 && k.Instance == 0
						})
					}
					got, err := storage.Keys(inner, p)
					if err != nil {
						t.Fatal(err)
					}
					storage.SortKeys(got)
					storage.SortKeys(want)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("proc %d keeps %v, want %v", p, got, want)
					}
				}
				// The store is at the line: a second rollback finds the same
				// line, nothing to scrub and nothing to discard.
				again, err := recovery.Rollback(st, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if (again.Line == nil) != (tc.line == nil) || len(again.Scrub.Quarantined) != 0 {
					t.Errorf("second rollback: line %v, scrub %+v", again.Line, again.Scrub)
				}
			})
		}
	}
}

// TestLatestConsistentSkipsWhatFailsToLoad: process 0's newest checkpoint
// no longer loads. The uncoordinated walk starts below it and counts it in
// Line.Degraded, as StraightCut counts a cut it skips, instead of failing.
func TestLatestConsistentSkipsWhatFailsToLoad(t *testing.T) {
	newest := history[len(history)-1]
	for kind, inner := range rollbackStores(t) {
		t.Run(kind, func(t *testing.T) {
			st := chaos.New(inner, 1, chaos.Rates{BitFlip: 1}, nil)
			for p := 0; p < 2; p++ {
				var instances storage.Counts
				for tick, k := range history {
					instances = counted(instances, k)
					s := storage.Snapshot{
						Proc: p, CFGIndex: k.CFGIndex, Instance: k.Instance,
						N: 2, Peers: rowOf([]int{2 * tick, 3 * tick}, []int{tick, 2 * tick}),
						Instances: instances,
					}
					into := inner
					if p == 0 && k == newest {
						into = st // marked: every read of it fails ErrCorrupt
					}
					if err := into.Save(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			line, err := recovery.LatestConsistent(st, 2)
			if err != nil {
				t.Fatal(err)
			}
			if line.Degraded < 1 {
				t.Errorf("Degraded = %d, want >= 1", line.Degraded)
			}
			want := []storage.Key{{Proc: 0, CFGIndex: 2, Instance: 1}, {Proc: 1, CFGIndex: 1, Instance: 2}}
			for p, s := range line.Snapshots {
				if s.Key() != want[p] {
					t.Errorf("process %d restarts from %s, want %s", p, s.Key(), want[p])
				}
			}
		})
	}
}

// Rollback scrubs after it has chosen the line, so the scrub must take what
// is damaged and nothing else: a mark on an old checkpoint of one process
// leaves the newer line loadable on every store kind.
func TestRollbackKeepsTheChosenLine(t *testing.T) {
	for kind, inner := range rollbackStores(t) {
		t.Run(kind, func(t *testing.T) {
			// As in TestRollback, the damaged checkpoint goes through the
			// chaos wrapper, which flips every save it sees. It sits in the
			// older of the two cuts Memory and the WAL keep.
			st := chaos.New(inner, 1, chaos.Rates{BitFlip: 1}, nil)
			marked := storage.Key{Proc: 0, CFGIndex: 1, Instance: 2}
			for p := 0; p < 2; p++ {
				for inst := 0; inst < 4; inst++ {
					s := storage.Snapshot{
						Proc: p, CFGIndex: 1, Instance: inst,
						Vars: map[string]int{"x": inst}, Instances: storage.Counts{{Index: 1, N: inst + 1}},
						N: 2, Peers: rowOf([]int{inst, inst}, []int{inst, inst}),
					}
					into := inner
					if s.Key() == marked {
						into = st
					}
					if err := into.Save(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			rb, err := recovery.Rollback(st, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Line == nil {
				t.Fatal("no line")
			}
			for _, m := range rb.Line.Snapshots {
				if m.Instance != 3 {
					t.Errorf("line member %s, want instance 3", m.Key())
				}
				if _, err := st.Get(m.Proc, m.CFGIndex, m.Instance); err != nil {
					t.Errorf("line member %s after the rollback: %v", m.Key(), err)
				}
			}
			if q := rb.Scrub.Quarantined; len(q) != 1 || q[0].Key != marked || rb.Scrub.Collateral != 0 {
				t.Errorf("scrub %+v, want %s quarantined and no collateral", rb.Scrub, marked)
			}
		})
	}
}

// deletes records the keys a rollback discards. It forwards Keys and Scrub,
// which embedding the Store interface would hide.
type deletes struct {
	storage.Store
	got []storage.Key
}

func (d *deletes) Delete(proc, cfgIndex, instance int) error {
	d.got = append(d.got, storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance})
	return d.Store.Delete(proc, cfgIndex, instance)
}

func (d *deletes) Keys(proc int) ([]storage.Key, error) { return storage.Keys(d.Store, proc) }

func (d *deletes) Scrub() (storage.ScrubReport, error) { return storage.Scrub(d.Store) }

// TestRollbackDiscardsFromKeysReadOnce: without a chooser, Rollback reads
// each process's keys once, before the scrub, and discards from those
// lists. The newest checkpoint of process 0 is damaged, so the line falls
// back to the older cut and the scrub quarantines a key above it: the
// discard skips that key and deletes exactly what a rollback that reads the
// keys again after the scrub (the path a chooser takes) deletes.
func TestRollbackDiscardsFromKeysReadOnce(t *testing.T) {
	for _, kind := range []string{"memory", "incremental", "wal"} {
		t.Run(kind, func(t *testing.T) {
			marked := storage.Key{Proc: 0, CFGIndex: 1, Instance: 3}
			var got [2][]storage.Key
			for i, choose := range []func(storage.Store, int) (*recovery.Line, error){nil, recovery.StraightCut} {
				inner := rollbackStores(t)[kind]
				st := chaos.New(inner, 1, chaos.Rates{BitFlip: 1}, nil)
				for p := 0; p < 2; p++ {
					for inst := 0; inst < 4; inst++ {
						s := storage.Snapshot{
							Proc: p, CFGIndex: 1, Instance: inst,
							Vars: map[string]int{"x": inst}, Instances: storage.Counts{{Index: 1, N: inst + 1}},
							N: 2, Peers: rowOf([]int{inst, inst}, []int{inst, inst}),
						}
						into := inner
						if s.Key() == marked {
							into = st
						}
						if err := into.Save(s); err != nil {
							t.Fatal(err)
						}
					}
				}
				d := &deletes{Store: st}
				rb, err := recovery.Rollback(d, 2, choose)
				if err != nil {
					t.Fatal(err)
				}
				if rb.Line == nil || rb.Line.Snapshots[0].Instance != 2 {
					t.Fatalf("line %+v, want the cut at instance 2", rb.Line)
				}
				if q := rb.Scrub.Quarantined; len(q) != 1 || q[0].Key != marked {
					t.Fatalf("scrub %+v, want %s quarantined", rb.Scrub, marked)
				}
				storage.SortKeys(d.got)
				got[i] = d.got
			}
			want := []storage.Key{{Proc: 1, CFGIndex: 1, Instance: 3}}
			if !slices.Equal(got[0], want) || !slices.Equal(got[1], want) {
				t.Errorf("deleted %v without a chooser, %v with StraightCut; want %v", got[0], got[1], want)
			}
		})
	}
}

// A snapshot that does not carry its instance counters cannot say what was
// saved after it. Rollback must refuse such a line before it scrubs or
// deletes anything: by the discard rule it would doom the line itself.
func TestRollbackRefusesLineWithoutCounters(t *testing.T) {
	refused(t, 2, 2, "instance counter", func(s *storage.Snapshot) {
		if s.Proc == 1 && s.Instance == 2 {
			// Process 1's newest snapshot, the line's member, is the one
			// without counters.
			s.Instances = nil
		}
	})
}

// A line member saved by an application narrower than the one restarting
// cannot rebuild its channels: read as zeros, the peers it does not know
// would re-inject messages that were already delivered. Rollback must refuse
// it before it scrubs or deletes anything, and so a member whose row names a
// peer the application does not have, which only a Recover hook can hand it.
func TestRollbackRefusesLineOfNarrowSeqs(t *testing.T) {
	refused(t, 4, 3, "a row of 3 processes", nil)
	st := storage.NewMemory()
	for p := range 2 {
		if err := st.Save(storage.Snapshot{Proc: p, CFGIndex: 1, Instances: storage.Counts{{Index: 1, N: 1}}, N: 2}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := recovery.Rollback(st, 2, func(st storage.Store, n int) (*recovery.Line, error) {
		line, err := recovery.StraightCut(st, n)
		if err == nil {
			line.Snapshots[1].Peers = storage.Row{{Peer: 2, Recvd: 1}}
		}
		return line, err
	})
	if err == nil || !strings.Contains(err.Error(), "peers [{2 0 1}]") {
		t.Fatalf("rollback to a line naming peer 2 of 2: %v", err)
	}
	if keys, _ := st.Keys(1); len(keys) != 1 {
		t.Errorf("process 1 holds %v after the refusal", keys)
	}
}

// refused saves three cuts of n processes, each member saved by a
// width-process application and edited by edit, and requires Rollback to
// refuse the line with an error naming want and to leave every key of the
// store where it was.
func refused(t *testing.T, n, width int, want string, edit func(*storage.Snapshot)) {
	t.Helper()
	for kind, st := range rollbackStores(t) {
		t.Run(kind, func(t *testing.T) {
			for p := 0; p < n; p++ {
				for inst := 0; inst < 3; inst++ {
					s := storage.Snapshot{
						Proc: p, CFGIndex: 1, Instance: inst, Instances: storage.Counts{{Index: 1, N: inst + 1}},
						N: width,
					}
					if edit != nil {
						edit(&s)
					}
					if err := st.Save(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			keys := func() string {
				all := make([][]storage.Key, n)
				for p := range all {
					got, err := storage.Keys(st, p)
					if err != nil {
						t.Fatal(err)
					}
					storage.SortKeys(got)
					all[p] = got
				}
				return fmt.Sprint(all)
			}
			before := keys()
			rb, err := recovery.Rollback(st, n, nil)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("rollback: line %+v, err %v; want a refusal naming %q", rb, err, want)
			}
			if after := keys(); after != before {
				t.Errorf("the store holds %s after the refusal, %s before", after, before)
			}
		})
	}
}

// twoSiteJacobi is Figure 1's Jacobi with a second checkpoint after the
// exchange, so that every process saves under two CFG indexes in
// alternation and both families of straight cuts are recovery lines.
func twoSiteJacobi(iters int) *mpl.Program {
	return mpl.NewBuilder("jacobi_two_sites").
		Const("MAXITER", iters).
		Vars("x", "xl", "xr", "iter").
		Assign("x", mpl.Add(mpl.Rank(), mpl.Int(1))).
		Assign("iter", mpl.Int(0)).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			b.Chkpt()
			b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "x")
			b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "x")
			b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "xl")
			b.Recv(mpl.Add(mpl.Rank(), mpl.Int(1)), "xr")
			b.Chkpt()
			b.Assign("x", mpl.Div(mpl.Add(mpl.Add(mpl.V("x"), mpl.V("xl")), mpl.V("xr")), mpl.Int(3)))
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
}

// rotting routes the saves rot names through a chaos wrapper that flips
// every save it sees, and everything else straight to the wrapper's store.
type rotting struct {
	*chaos.Store
	inner storage.Store
	rot   func(storage.Key) bool
}

func (r rotting) Save(s storage.Snapshot) error {
	if r.rot(s.Key()) {
		return r.Store.Save(s)
	}
	return r.inner.Save(s)
}

// rotNewest damages process 0's member of the newest complete cut of every
// index in st, saving it again through bad, and returns each index's newest
// cut.
func rotNewest(st, bad storage.Store, n int) (map[int]int, error) {
	indexes, err := st.Indexes(n)
	if err != nil {
		return nil, err
	}
	newest := map[int]int{}
	for _, idx := range indexes {
		for p := 0; p < n; p++ {
			s, err := st.Latest(p, idx)
			if err != nil {
				return nil, err
			}
			if f, ok := newest[idx]; !ok || s.Instance < f {
				newest[idx] = s.Instance
			}
		}
		s, err := st.Get(0, idx, newest[idx])
		if err == nil {
			err = st.Delete(0, idx, s.Instance)
		}
		if err == nil {
			err = bad.Save(s)
		}
		if err != nil {
			return nil, err
		}
	}
	return newest, nil
}

// The discard rule reads "saved after the line" off the line member's
// instance counters. Before every rollback of real crash runs, the set it
// dooms must be the set an independent rule dooms: every snapshot whose own
// count of sends, receives and checkpoints (recovery.Progress) is past the
// line member's, which grows with every checkpoint a process takes.
func TestDiscardByCountersMatchesDiscardByClock(t *testing.T) {
	const n = 3
	crashes := []sim.Crash{{Inc: 0, Proc: 1, AfterEvents: 40}, {Inc: 1, Proc: 2, AfterEvents: 6}}
	never := func(storage.Key) bool { return false }
	cases := []struct {
		name string
		rot  func(storage.Key) bool
		// newestRot replaces rot on Memory and the WAL, which retire what
		// rot damages below the newest two cuts: at the first rollback,
		// process 0's member of the newest cut of every index is damaged,
		// and the line must be the cut below it, at F_i − 1.
		newestRot bool
		degraded  bool // some rollback must skip a candidate cut
		scratch   bool // some rollback must find no line
	}{
		{name: "clean", rot: never},
		{name: "degraded", rot: func(k storage.Key) bool { return k.Proc == 0 && k.Instance >= 3 }, newestRot: true, degraded: true},
		{name: "from scratch", rot: func(k storage.Key) bool { return k.Proc == 0 }, scratch: true},
	}
	prog := twoSiteJacobi(8)
	clean, err := sim.Run(sim.Config{Program: prog, Nproc: n, DisableTrace: true, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		for kind, inner := range rollbackStores(t) {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				newestRot := tc.newestRot && kind != "incremental"
				rot := tc.rot
				if newestRot {
					rot = never
				}
				damaging := chaos.New(inner, 1, chaos.Rates{BitFlip: 1}, nil)
				rollbacks, sawDegraded, sawScratch, doomedTotal := 0, false, false, 0
				compare := func(st storage.Store, n int) (*recovery.Line, error) {
					var newest map[int]int
					if newestRot && rollbacks == 0 {
						var err error
						if newest, err = rotNewest(inner, damaging, n); err != nil {
							return nil, err
						}
					}
					line, err := recovery.StraightCut(st, n)
					if err != nil && !errors.Is(err, recovery.ErrNoRecoveryLine) {
						return nil, err
					}
					if newest != nil {
						if line == nil || line.Degraded == 0 {
							return nil, fmt.Errorf("newest cuts %v damaged: line %+v, want a degraded one", newest, line)
						}
						if s := line.Snapshots[0]; s.Instance != newest[s.CFGIndex]-1 {
							return nil, fmt.Errorf("line at %s, want the cut below the newest, instance %d", s.Key(), newest[s.CFGIndex]-1)
						}
					}
					rollbacks++
					sawScratch = sawScratch || line == nil
					sawDegraded = sawDegraded || (line != nil && line.Degraded > 0)
					// Rollback scrubs before it discards; List needs it too.
					if _, err := storage.Scrub(st); err != nil {
						return nil, err
					}
					for p := 0; p < n; p++ {
						snaps, err := st.List(p)
						if err != nil {
							return nil, err
						}
						keys, err := storage.Keys(st, p)
						if err != nil {
							return nil, err
						}
						var byOwnCount, byCounters []storage.Key
						for _, s := range snaps {
							if line == nil || recovery.Progress(s) > recovery.Progress(line.Snapshots[p]) {
								byOwnCount = append(byOwnCount, s.Key())
							}
						}
						for _, k := range keys {
							if line == nil || k.Instance >= line.Snapshots[p].Instances.At(k.CFGIndex) {
								byCounters = append(byCounters, k)
							}
						}
						storage.SortKeys(byOwnCount)
						storage.SortKeys(byCounters)
						if fmt.Sprint(byOwnCount) != fmt.Sprint(byCounters) {
							t.Errorf("rollback %d, proc %d: own-count rule dooms %v, counter rule dooms %v", rollbacks, p, byOwnCount, byCounters)
						}
						doomedTotal += len(byCounters)
					}
					return line, err
				}
				res, err := sim.Run(sim.Config{
					Program: prog, Nproc: n, DisableTrace: true, Timeout: 10 * time.Second,
					Store:   rotting{damaging, inner, rot},
					Crashes: crashes, Recover: compare,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.FinalVars, clean.FinalVars) {
					t.Errorf("final state %v, want %v", res.FinalVars, clean.FinalVars)
				}
				if rollbacks != len(crashes) || doomedTotal == 0 {
					t.Errorf("%d rollbacks dooming %d snapshots; want %d rollbacks and a non-empty discard", rollbacks, doomedTotal, len(crashes))
				}
				if tc.degraded && !sawDegraded {
					t.Error("no rollback chose a degraded line")
				}
				if tc.scratch && !sawScratch {
					t.Error("no rollback restarted from scratch")
				}
			})
		}
	}
}

// bodyReads counts the calls through it that load a snapshot body.
type bodyReads struct {
	*wal.Store
	n int
}

func (b *bodyReads) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	b.n++
	return b.Store.Get(proc, cfgIndex, instance)
}

func (b *bodyReads) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	b.n++
	return b.Store.Latest(proc, cfgIndex)
}

func (b *bodyReads) List(proc int) ([]storage.Snapshot, error) {
	b.n++
	return b.Store.List(proc)
}

// Over a WAL, rollback decodes the snapshots selection looks at and nothing
// else: the discard names its keys from the index and reads "after the
// line" off the line's own members. Pinned twice — no body read once the
// line is chosen, and, with the line given, fewer allocated objects than
// there are checkpoints in the log (decoding one costs five).
func TestRollbackOverWALDecodesOnlyTheLine(t *testing.T) {
	const n, each = 2, 64
	ws, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	for p := 0; p < n; p++ {
		saved := each
		if p == 1 {
			saved += 3 // process 1 ran ahead of the last common cut
		}
		for inst := 0; inst < saved; inst++ {
			// No N: the WAL retires nothing and holds every save.
			// The chosen line is given its channel counters below.
			s := storage.Snapshot{
				Proc: p, CFGIndex: 1, Instance: inst,
				Vars: map[string]int{"x": inst}, Instances: storage.Counts{{Index: 1, N: inst + 1}},
			}
			if err := ws.Save(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := &bodyReads{Store: ws}
	selected := -1
	rb, err := recovery.Rollback(st, n, func(st storage.Store, n int) (*recovery.Line, error) {
		line, err := recovery.StraightCut(st, n)
		selected = st.(*bodyReads).n
		for p := 0; err == nil && p < n; p++ {
			line.Snapshots[p].N = n
		}
		return line, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.n != selected {
		t.Errorf("%d snapshot reads after the line was chosen, want none", st.n-selected)
	}
	if keys, _ := ws.Keys(1); len(keys) != each {
		t.Errorf("process 1 keeps %d checkpoints, want %d", len(keys), each)
	}
	given := func(storage.Store, int) (*recovery.Line, error) { return rb.Line, nil }
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := recovery.Rollback(st, n, given); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n*each {
		t.Errorf("rollback at the line allocates %v objects over %d checkpoints", allocs, n*each)
	}
}

// Selection reads each member of a cut once: the candidates come from the
// keys, so a process that ran ahead of the newest common instance costs no
// read (one more each while a Latest frontier was probed, 2n before its
// result was kept). The name ends in Allocs so that the plain-build
// allocation step runs it: a body read is a decode.
func TestStraightCutReadsEachMemberOnceAllocs(t *testing.T) {
	const n, each = 4, 3
	for _, tc := range []struct {
		name  string
		ahead []int // processes that saved one more instance than the rest
	}{
		{"everyone at the frontier", nil},
		{"one process ahead", []int{2}},
		{"all but one ahead", []int{0, 1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ws.Close()
			saved := [n]int{each, each, each, each}
			for _, p := range tc.ahead {
				saved[p]++
			}
			for p := 0; p < n; p++ {
				for inst := 0; inst < saved[p]; inst++ {
					s := storage.Snapshot{
						Proc: p, CFGIndex: 1, Instance: inst,
						N: n, Peers: rowOf([]int{inst, inst, inst, inst}, make([]int, n)),
						Instances: storage.Counts{{Index: 1, N: inst + 1}},
					}
					if err := ws.Save(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := &bodyReads{Store: ws}
			line, err := recovery.StraightCut(st, n)
			if err != nil {
				t.Fatal(err)
			}
			for p, s := range line.Snapshots {
				if want := (storage.Key{Proc: p, CFGIndex: 1, Instance: each - 1}); s.Key() != want {
					t.Errorf("member %d is %s, want %s", p, s.Key(), want)
				}
			}
			if st.n != n || line.Degraded != 0 {
				t.Errorf("%d body reads (degraded %d), want %d: one per member", st.n, line.Degraded, n)
			}
			rb, err := recovery.Rollback(st, n, func(storage.Store, int) (*recovery.Line, error) { return line, nil })
			if err != nil {
				t.Fatal(err)
			}
			sent, recvd := channels(rb, n)
			for p := range sent {
				for q := range sent[p] {
					if sent[p][q] != each-1 || recvd[p][q] != 0 {
						t.Fatalf("channel %d->%d counts %d sent and %d received; want %d and 0", p, q, sent[p][q], recvd[p][q], each-1)
					}
				}
			}
		})
	}
}

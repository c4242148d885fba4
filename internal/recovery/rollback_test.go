package recovery_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// rollbackStores opens one store of every kind. The incremental store
// refuses an interior delete with an error, so a Rollback that succeeds
// over it deleted tail-first.
func rollbackStores(t *testing.T) map[string]storage.Store {
	t.Helper()
	fs, err := storage.NewFile(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	return map[string]storage.Store{
		"memory": storage.NewMemory(), "file": fs, "incremental": storage.NewIncremental(2), "wal": ws,
	}
}

// history is what each of two processes saved, in order; its position + 1
// is the process's own clock component at the checkpoint. All checkpoints
// are concurrent, so every straight cut is consistent and the sum of its
// clocks ranks it.
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
					for tick, k := range saved {
						s := storage.Snapshot{
							Proc: p, CFGIndex: k.CFGIndex, Instance: k.Instance,
							Clock: make([]uint64, 2), Vars: map[string]int{"x": tick},
							SendSeqs: []int{tick, 10 * tick}, RecvSeqs: []int{20 * tick, tick},
						}
						s.Clock[p] = uint64(tick + 1)
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
				wantSend, wantRecv := [][]int{{0, 0}, {0, 0}}, [][]int{{0, 0}, {0, 0}}
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
						wantSend[p], wantRecv[p] = s.SendSeqs, s.RecvSeqs
					}
					if rb.Line.Degraded != tc.degraded {
						t.Errorf("Degraded = %d, want %d", rb.Line.Degraded, tc.degraded)
					}
				}
				if !reflect.DeepEqual(rb.SendSeq, wantSend) || !reflect.DeepEqual(rb.RecvSeq, wantRecv) {
					t.Errorf("seq matrices %v / %v, want %v / %v", rb.SendSeq, rb.RecvSeq, wantSend, wantRecv)
				}
				for p, want := range tc.survivors {
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

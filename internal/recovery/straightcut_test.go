package recovery

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// cutStore builds the store a FuzzStraightCutAgainstReference input names,
// every missing byte read as 0:
//
//	[0]      bit 0: a WAL, else Memory; n = 2 + (bits 1..) % 3
//	[1..3]   a weight w_i per index i = 1..3
//	then     per process p < n, per index i: a mask of the instances
//	         0..5 p saves at i, and a mask of those whose Get then fails
//
// Checkpoint (p, i, k) sends k + w_i%4 messages to every other process and
// receives none, so every cut is consistent and two indexes tie on progress
// whenever their k + w_i do. Saves go process by process, in instance
// order; what the store retires on the way is no longer a key.
func cutStore(t testing.TB, data []byte) (*corruptStore, int) {
	t.Helper()
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 2 + (at(0)>>1)%3
	st := &corruptStore{Store: storage.NewMemory()}
	if at(0)&1 == 1 {
		ws, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		st.Store = ws
	}
	next := 4
	for p := 0; p < n; p++ {
		for idx := 1; idx <= 3; idx++ {
			held, bad := at(next), at(next+1)
			next += 2
			for k := 0; k < 6; k++ {
				if held&(1<<k) == 0 {
					continue
				}
				var peers storage.Row
				for q := range n {
					if sent := k + at(idx)%4; q != p && sent != 0 {
						peers = append(peers, storage.PeerSeq{Peer: q, Sent: sent})
					}
				}
				s := storage.Snapshot{Proc: p, CFGIndex: idx, Instance: k, N: n, Peers: peers}
				if err := st.Save(s); err != nil {
					t.Fatal(err)
				}
				if bad&(1<<k) != 0 {
					st.markBad(p, idx, k)
				}
			}
		}
	}
	return st, n
}

// referenceCut is Definition 2.3 by brute force over the same keys: a
// candidate is an (index, instance) all n processes hold; per index the
// newest candidate whose n members all load is its cut; the cut with the
// greatest total Progress wins, the lowest index on a tie. degraded counts
// the candidates tried that failed to load.
func referenceCut(t testing.TB, st storage.Store, n int) (line storage.Key, degraded int, ok bool) {
	t.Helper()
	holders := map[storage.Key]int{}
	for p := 0; p < n; p++ {
		keys, err := storage.Keys(st, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			holders[storage.Key{CFGIndex: k.CFGIndex, Instance: k.Instance}]++
		}
	}
	var cands []storage.Key
	for k, c := range holders {
		if c == n {
			cands = append(cands, k)
		}
	}
	slices.SortFunc(cands, func(a, b storage.Key) int {
		return cmp.Or(cmp.Compare(a.CFGIndex, b.CFGIndex), cmp.Compare(b.Instance, a.Instance))
	})
	best, done := -1, map[int]bool{}
	for _, c := range cands {
		if done[c.CFGIndex] {
			continue
		}
		score, loads := 0, true
		for p := 0; p < n; p++ {
			s, err := st.Get(p, c.CFGIndex, c.Instance)
			loads = loads && err == nil
			score += Progress(s)
		}
		if !loads {
			degraded++
			continue
		}
		done[c.CFGIndex] = true
		if !ok || score > best {
			line, best, ok = c, score, true
		}
	}
	return line, degraded, ok
}

// checkAgainstReference runs StraightCut and the reference on the store data
// names and fails t where they differ.
func checkAgainstReference(t *testing.T, data []byte) *Line {
	st, n := cutStore(t, data)
	want, wantDegraded, ok := referenceCut(t, st, n)
	line, err := StraightCut(st, n)
	if !ok {
		if !errors.Is(err, ErrNoRecoveryLine) {
			t.Fatalf("no candidate loads, yet StraightCut = %v, %v", line, err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("StraightCut: %v; the reference chose (%d, #%d)", err, want.CFGIndex, want.Instance)
	}
	for p, s := range line.Snapshots {
		if w := (storage.Key{Proc: p, CFGIndex: want.CFGIndex, Instance: want.Instance}); s.Key() != w {
			t.Errorf("member %d is %s, want %s", p, s.Key(), w)
		}
	}
	if line.Degraded != wantDegraded {
		t.Errorf("Degraded = %d, want %d", line.Degraded, wantDegraded)
	}
	return line
}

// heldCutsSeed: on two processes of a memory store, p0 saves instances 0–4
// of index 1 and instance 4 is damaged; p1 saves instances 0–5.
var heldCutsSeed = []byte{0, 0, 0, 0, 0b011111, 0b010000, 0, 0, 0, 0, 0b111111}

func FuzzStraightCutAgainstReference(f *testing.F) {
	f.Add(heldCutsSeed)
	// A WAL of three processes: index 2 ties index 1 on progress, and
	// index 3's newest cut is damaged on process 2.
	f.Add([]byte{0b011, 1, 0, 0,
		0b111, 0, 0b011, 0, 0b1111, 0,
		0b111, 0, 0b011, 0, 0b1111, 0,
		0b111, 0, 0b011, 0, 0b1111, 0b1000})
	// Four processes on Memory with gaps: no instance of index 1 is held
	// by all, and every cut of index 3 is damaged somewhere.
	f.Add([]byte{0b100, 3, 2, 1,
		0b000101, 0, 0b110110, 0b000100, 0b111, 0b001,
		0b001010, 0, 0b110111, 0, 0b111, 0b010,
		0b000101, 0, 0b010110, 0, 0b111, 0b100,
		0b111111, 0, 0b110110, 0, 0b111, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		checkAgainstReference(t, data)
	})
}

// A damaged frontier member leaves the line one instance older and costs
// one degradation step: the cut (1, #5), which p0 never saved, is no
// candidate and counts nothing (it counted one while the walk probed down
// from p1's newest instance).
func TestStraightCutDegradedCountsOnlyHeldCuts(t *testing.T) {
	line := checkAgainstReference(t, heldCutsSeed)
	if line == nil {
		t.Fatal("no recovery line")
	}
	if s := line.Snapshots[0]; s.CFGIndex != 1 || s.Instance != 3 || line.Degraded != 1 {
		t.Errorf("line at %s, Degraded %d; want index 1 instance 3, Degraded 1", s.Key(), line.Degraded)
	}
}

// Selection keeps its order and its width: equal progress goes to the lower
// index, and keys beyond the candidates — of process n, or of an (i, k)
// process 0 lacks — change neither the line nor the reads nor Degraded.
func TestStraightCutOrderAndWidth(t *testing.T) {
	const n = 3
	type chk struct{ proc, index, instance, sent int }
	snap := func(c chk) storage.Snapshot {
		var peers storage.Row
		for q := range n {
			if q != c.proc%n && c.sent != 0 {
				peers = append(peers, storage.PeerSeq{Peer: q, Sent: c.sent})
			}
		}
		return storage.Snapshot{Proc: c.proc, CFGIndex: c.index, Instance: c.instance, N: n, Peers: peers}
	}
	cut := func(index, instance, sent int) []chk {
		return []chk{{0, index, instance, sent}, {1, index, instance, sent}, {2, index, instance, sent}}
	}
	for _, tc := range []struct {
		name         string
		base, extra  []chk // extra keys, damaged, must not matter
		wantIndex    int
		wantInstance int
	}{
		{
			name:      "equal progress takes the lower index",
			base:      slices.Concat(cut(2, 0, 4), cut(1, 0, 1), cut(1, 1, 4)),
			wantIndex: 1, wantInstance: 1,
		},
		{
			name:      "keys of process n",
			base:      slices.Concat(cut(1, 0, 1), cut(2, 0, 2)),
			extra:     []chk{{n, 1, 0, 1}, {n, 1, 1, 9}, {n, 3, 0, 9}},
			wantIndex: 2, wantInstance: 0,
		},
		{
			name:      "a cut process 0 lacks",
			base:      slices.Concat(cut(1, 0, 1), cut(2, 0, 2)),
			extra:     []chk{{1, 2, 1, 9}, {2, 2, 1, 9}, {1, 3, 0, 9}, {2, 3, 0, 9}},
			wantIndex: 2, wantInstance: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gets := -1
			for _, extra := range [][]chk{nil, tc.extra} {
				st := &corruptStore{Store: storage.NewMemory()}
				for _, c := range slices.Concat(tc.base, extra) {
					if err := st.Save(snap(c)); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range extra {
					st.markBad(c.proc, c.index, c.instance)
				}
				line, err := StraightCut(st, n)
				if err != nil {
					t.Fatal(err)
				}
				for p, s := range line.Snapshots {
					if s.CFGIndex != tc.wantIndex || s.Instance != tc.wantInstance {
						t.Errorf("%d extra keys: member %d is %s, want index %d instance %d",
							len(extra), p, s.Key(), tc.wantIndex, tc.wantInstance)
					}
				}
				if line.Degraded != 0 || (gets >= 0 && st.gets != gets) {
					t.Errorf("%d extra keys: %d reads, Degraded %d; want %d reads, Degraded 0",
						len(extra), st.gets, line.Degraded, gets)
				}
				gets = st.gets
				if tc.extra == nil {
					break
				}
			}
		})
	}
}

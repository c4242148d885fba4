package recovery_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// testdata/wal-v1 is a log the version 1 encoder wrote: transformed Figure 2
// Jacobi, JacobiFig2(8) on 4 processes with one crash, run to its end, so the
// log holds instances 6 and 7 of index 1 for each process, and each body two
// dense 4-wide rows. Reopened by today's store, its replay retires by the
// bodies' width, recovery chooses instance 7 from the rows read as entries,
// and saves of version 2 bodies retire the version 1 ones they pass, also
// across a second reopen.
func TestRecoverFromVersion1WAL(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	for _, name := range []string{"log-0.seg", "log.manifest"} {
		b, err := os.ReadFile(filepath.Join("testdata", "wal-v1", name))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ws, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	held := func(want ...int) {
		t.Helper()
		for p := range n {
			keys, err := ws.Keys(p)
			if err != nil {
				t.Fatal(err)
			}
			storage.SortKeys(keys)
			var got []int
			for _, k := range keys {
				got = append(got, k.Instance)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("process %d holds instances %v of index 1, want %v", p, got, want)
			}
		}
	}
	held(6, 7)
	rb, err := recovery.Rollback(ws, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range rb.Line.Snapshots {
		want := storage.Row{{Peer: p ^ 1, Sent: 7, Recvd: 7}}
		if s.Instance != 7 || s.N != n || !reflect.DeepEqual(s.Peers, want) || s.Instances[1] != 8 || s.Vars["iter"] != 7 {
			t.Errorf("line member %d: %s, N %d, peers %v, instances %v, vars %v; want instance 7, N 4, peers %v",
				p, s.Key(), s.N, s.Peers, s.Instances, s.Vars, want)
		}
	}
	held(6, 7)

	for p := range n {
		s := rb.Line.Snapshots[p]
		s.Instance, s.Instances = 8, map[int]int{1: 9}
		s.Peers = storage.Row{{Peer: p ^ 1, Sent: 8, Recvd: 8}}
		if err := ws.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	held(7, 8)
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if ws, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	held(7, 8)
	if line, err := recovery.StraightCut(ws, n); err != nil || line.Snapshots[0].Instance != 8 || line.Snapshots[0].Peers.At(1).Sent != 8 {
		t.Fatalf("after the reopen: line %+v, %v; want instance 8", line, err)
	}
}

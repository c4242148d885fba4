package recovery

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

// save persists a snapshot of one of two processes that had sent and
// received the given numbers of messages to and from the other.
func save(t *testing.T, st storage.Store, proc, index, instance, sent, received int) {
	t.Helper()
	err := st.Save(storage.Snapshot{
		Proc: proc, CFGIndex: index, Instance: instance,
		N: 2, Peers: two(proc, sent, received),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// two is the row of proc, one of two processes, that had sent and received
// the given numbers of messages to and from the other.
func two(proc, sent, received int) storage.Row {
	if sent == 0 && received == 0 {
		return nil
	}
	return storage.Row{{Peer: 1 - proc, Sent: sent, Recvd: received}}
}

func TestStraightCutEmptyStore(t *testing.T) {
	st := storage.NewMemory()
	if _, err := StraightCut(st, 2); !errors.Is(err, ErrNoRecoveryLine) {
		t.Fatalf("err = %v, want ErrNoRecoveryLine", err)
	}
}

func TestStraightCutPicksCommonInstance(t *testing.T) {
	st := storage.NewMemory()
	// Proc 0 has instances 0..2, proc 1 only 0..1 (it was behind at the
	// failure): the cut must use instance 1 (no orphan at any instance).
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 0, 1, 1, 2, 2)
	save(t, st, 0, 1, 2, 4, 4)
	save(t, st, 1, 1, 0, 0, 0)
	save(t, st, 1, 1, 1, 2, 2)
	line, err := StraightCut(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range line.Snapshots {
		if s.Proc != p || s.CFGIndex != 1 || s.Instance != 1 {
			t.Errorf("snapshot %d = %+v, want index 1 instance 1", p, s)
		}
	}
	if line.Rollbacks != 0 {
		t.Errorf("rollbacks = %d", line.Rollbacks)
	}
}

func TestStraightCutDetectsInconsistency(t *testing.T) {
	st := storage.NewMemory()
	// Proc 0's checkpoint happened before proc 1's (Figure 3 situation):
	// proc 1 received a message proc 0 sent after its checkpoint.
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 1, 1, 0, 0, 1)
	_, err := StraightCut(st, 2)
	if !errors.Is(err, ErrInconsistentCut) {
		t.Fatalf("err = %v, want ErrInconsistentCut", err)
	}
}

func TestStraightCutPrefersMostProgress(t *testing.T) {
	st := storage.NewMemory()
	// Two indexes: index 1 early, index 2 later. Both consistent; index 2
	// has more messages behind it and must win.
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 1, 1, 0, 0, 0)
	save(t, st, 0, 2, 0, 3, 3)
	save(t, st, 1, 2, 0, 3, 3)
	line, err := StraightCut(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Snapshots[0].CFGIndex != 2 {
		t.Errorf("chose index %d, want 2", line.Snapshots[0].CFGIndex)
	}
}

func TestStraightCutRequiresAllProcs(t *testing.T) {
	st := storage.NewMemory()
	save(t, st, 0, 1, 0, 0, 0)
	// Proc 1 never checkpointed.
	if _, err := StraightCut(st, 2); !errors.Is(err, ErrNoRecoveryLine) {
		t.Fatalf("err = %v, want ErrNoRecoveryLine", err)
	}
}

func TestLatestConsistentNoRollbackNeeded(t *testing.T) {
	st := storage.NewMemory()
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 0, 1, 1, 2, 1)
	save(t, st, 1, 1, 0, 0, 0)
	save(t, st, 1, 1, 1, 1, 2)
	line, err := LatestConsistent(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Rollbacks != 0 {
		t.Errorf("rollbacks = %d, want 0", line.Rollbacks)
	}
	if line.Snapshots[0].Instance != 1 || line.Snapshots[1].Instance != 1 {
		t.Errorf("cut = %+v", line.Snapshots)
	}
}

func TestLatestConsistentRollsBackOrphan(t *testing.T) {
	st := storage.NewMemory()
	// Proc 1's latest checkpoint saw proc 0's post-checkpoint messages
	// (it received 3, proc 0 had sent 2 at #1): proc 1 must roll back.
	save(t, st, 0, 1, 0, 1, 0)
	save(t, st, 0, 1, 1, 2, 0)
	save(t, st, 1, 1, 0, 0, 1)
	save(t, st, 1, 1, 1, 0, 3) // orphan: message #2 was sent after proc0's #1
	line, err := LatestConsistent(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", line.Rollbacks)
	}
	if line.Snapshots[1].Instance != 0 {
		t.Errorf("proc 1 restored instance %d, want 0", line.Snapshots[1].Instance)
	}
	if line.Snapshots[0].Instance != 1 {
		t.Errorf("proc 0 restored instance %d, want 1 (no rollback)", line.Snapshots[0].Instance)
	}
}

func TestLatestConsistentDominoCascade(t *testing.T) {
	st := storage.NewMemory()
	// Classic domino: each checkpoint of each process depends on the
	// other's previous interval, so no combination is consistent except
	// nothing — the cascade consumes all checkpoints of proc 1 first.
	//
	// Chain: p1#1 saw p0#0's post-checkpoint messages, and p0#1 saw
	// p1#1's; rolling back p0 exposes the p0#0→p1#1 orphan, rolling back
	// p1 finally yields the concurrent initial pair.
	save(t, st, 0, 1, 0, 0, 0) // then sends message #0 to p1
	save(t, st, 1, 1, 0, 0, 0) // then receives it
	save(t, st, 1, 1, 1, 0, 1) // then sends message #0 to p0
	save(t, st, 0, 1, 1, 1, 1) // after receiving it
	line, err := LatestConsistent(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Rollbacks != 2 {
		t.Errorf("rollbacks = %d, want 2", line.Rollbacks)
	}
	if line.Snapshots[0].Instance != 0 || line.Snapshots[1].Instance != 0 {
		t.Errorf("cascade should reach the initial pair: %+v", line.Snapshots)
	}
	if _, _, ok := Consistent(line.Snapshots); !ok {
		t.Errorf("returned inconsistent cut: %+v", line.Snapshots)
	}
}

func TestLatestConsistentTotalDomino(t *testing.T) {
	st := storage.NewMemory()
	// Every checkpoint of proc 1 is an orphan of proc 0's only checkpoint;
	// proc 1 runs out of checkpoints.
	save(t, st, 0, 1, 0, 0, 0)
	save(t, st, 1, 1, 0, 0, 1)
	line, err := LatestConsistent(st, 2)
	if err == nil {
		// {proc0#0, proc1#0}: proc1 received message #0, which proc0 sent
		// after its only checkpoint; proc1 has nothing earlier.
		t.Fatalf("expected domino exhaustion, got %+v", line.Snapshots)
	}
	if !errors.Is(err, ErrNoRecoveryLine) {
		t.Fatalf("err = %v, want ErrNoRecoveryLine", err)
	}
}

func TestLatestConsistentEmptyProcess(t *testing.T) {
	st := storage.NewMemory()
	save(t, st, 0, 1, 0, 0, 0)
	if _, err := LatestConsistent(st, 2); !errors.Is(err, ErrNoRecoveryLine) {
		t.Fatalf("err = %v, want ErrNoRecoveryLine", err)
	}
}

// TestLatestConsistentWalksInTime: after a rollback to (2,0) a statement-mode
// uncoordinated process numbers its checkpoints from 1 again, so its
// retained history is, in time, (1,0), (2,0), (1,1). Key order would put
// (2,0) last; the walk must start from (1,1), the newest by Progress.
func TestLatestConsistentWalksInTime(t *testing.T) {
	st := storage.NewMemory()
	history := []struct {
		index, instance, seq int
		instances            storage.Counts
	}{
		{1, 0, 0, storage.Counts{{Index: 1, N: 1}}},
		{2, 0, 1, storage.Counts{{Index: 1, N: 1}, {Index: 2, N: 1}}},
		{1, 1, 2, storage.Counts{{Index: 1, N: 2}, {Index: 2, N: 1}}},
	}
	for p := 0; p < 2; p++ {
		for _, h := range history {
			err := st.Save(storage.Snapshot{
				Proc: p, CFGIndex: h.index, Instance: h.instance,
				N: 2, Peers: two(p, h.seq, h.seq),
				Instances: h.instances,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	line, err := LatestConsistent(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if line.Rollbacks != 0 {
		t.Errorf("rollbacks = %d, want 0", line.Rollbacks)
	}
	for p, s := range line.Snapshots {
		if s.CFGIndex != 1 || s.Instance != 1 {
			t.Errorf("process %d restarts from %s, want index 1 instance 1", p, s.Key())
		}
	}
}

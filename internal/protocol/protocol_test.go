package protocol

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/trace"
)

func run(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	if cfg.Timeout == 0 {
		cfg.Timeout = 20 * time.Second
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// assertIndexCutsConsistent checks that for every checkpoint index stored
// by ALL processes, the (same-instance) cut is consistent.
func assertIndexCutsConsistent(t *testing.T, st storage.Store, n int) {
	t.Helper()
	indexes, err := st.Indexes(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexes) == 0 {
		t.Fatal("no complete checkpoint indexes")
	}
	for _, idx := range indexes {
		cut := make([]storage.Snapshot, n)
		for p := 0; p < n; p++ {
			s, err := st.Latest(p, idx)
			if err != nil {
				t.Fatal(err)
			}
			cut[p] = s
		}
		if i, j, ok := recovery.Consistent(cut); !ok {
			t.Errorf("index %d: checkpoint of p%d happened before p%d's", idx, i, j)
		}
	}
}

func TestSaSConsistentRoundsAndMessageCount(t *testing.T) {
	const n, iters = 4, 3
	res := run(t, sim.Config{
		Program: corpus.JacobiFig1(iters),
		Nproc:   n,
		Hooks:   SaS(),
	})
	assertIndexCutsConsistent(t, res.Store, n)
	// Every round's straight cut in the trace is a recovery line.
	for _, idx := range res.Trace.CheckpointIndexes() {
		cut, err := res.Trace.StraightCut(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !trace.IsRecoveryLine(cut) {
			t.Errorf("SaS round %d cut inconsistent", idx)
		}
	}
	// The paper's M(SaS): 5(n-1) control messages per checkpoint round.
	wantCtrl := int64(iters * 5 * (n - 1))
	if res.Metrics.CtrlMessages != wantCtrl {
		t.Errorf("ctrl messages = %d, want %d", res.Metrics.CtrlMessages, wantCtrl)
	}
	if res.Metrics.Checkpoints != int64(iters*n) {
		t.Errorf("checkpoints = %d, want %d", res.Metrics.Checkpoints, iters*n)
	}
}

func TestSaSDeadlocksWhenBarrierMisplaced(t *testing.T) {
	// Fig2's odd ranks must receive before reaching their checkpoint
	// statement, but the even coordinator stops at the barrier before
	// sending: classic stop-the-world fragility. The application-driven
	// approach exists to avoid exactly this.
	_, err := sim.Run(sim.Config{
		Program: corpus.JacobiFig2(2),
		Nproc:   4,
		Hooks:   SaS(),
		Timeout: 300 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestCLSnapshotsConsistentOnUntransformedFig2(t *testing.T) {
	// Fig2's OWN straight cuts are inconsistent; Chandy-Lamport's marker
	// rounds still produce recovery lines.
	const n, iters = 4, 3
	res := run(t, sim.Config{
		Program: corpus.JacobiFig2(iters),
		Nproc:   n,
		Hooks:   CL(),
	})
	assertIndexCutsConsistent(t, res.Store, n)
	if rounds, err := res.Store.Indexes(n); err != nil || len(rounds) != iters {
		t.Errorf("rounds = %v (%v), want %d", rounds, err, iters)
	}
	// Marker traffic: n(n-1) markers per round (every process refloods to
	// all others). The paper counts 2n(n-1) messages for C-L on a fully
	// connected network (bidirectional channel convention); our count is
	// the unidirectional half.
	wantMarkers := int64(iters * n * (n - 1))
	if res.Metrics.CtrlMessages != wantMarkers {
		t.Errorf("markers = %d, want %d", res.Metrics.CtrlMessages, wantMarkers)
	}
	if res.Metrics.Checkpoints != int64(iters*n) {
		t.Errorf("checkpoints = %d, want %d", res.Metrics.Checkpoints, iters*n)
	}
}

func TestCLOnRing(t *testing.T) {
	const n = 3
	res := run(t, sim.Config{
		Program: corpus.Ring(3),
		Nproc:   n,
		Hooks:   CL(),
	})
	assertIndexCutsConsistent(t, res.Store, n)
	if res.Metrics.Checkpoints == 0 {
		t.Fatal("no snapshot rounds")
	}
}

func TestCICForcesCheckpointsAndStaysConsistent(t *testing.T) {
	// On the untransformed Fig2 the piggybacked indexes force odd ranks to
	// checkpoint before delivering even ranks' messages; same-index cuts
	// are then consistent even though the application's placements are
	// not.
	const n, iters = 4, 3
	res := run(t, sim.Config{
		Program: corpus.JacobiFig2(iters),
		Nproc:   n,
		Hooks:   CIC(),
	})
	assertIndexCutsConsistent(t, res.Store, n)
	if res.Metrics.Forced == 0 {
		t.Error("CIC took no forced checkpoints on Fig2")
	}
	if res.Metrics.CtrlMessages != 0 {
		t.Errorf("CIC sent %d control messages, want 0 (piggyback only)", res.Metrics.CtrlMessages)
	}
}

func TestCICNoForcedWhenPlacementAligned(t *testing.T) {
	// On Fig1 everyone checkpoints at the same point before communicating,
	// so indexes never lag: no forced checkpoints.
	res := run(t, sim.Config{
		Program: corpus.JacobiFig1(3),
		Nproc:   4,
		Hooks:   CIC(),
	})
	if res.Metrics.Forced != 0 {
		t.Errorf("forced = %d, want 0", res.Metrics.Forced)
	}
	assertIndexCutsConsistent(t, res.Store, 4)
}

func TestUncoordinatedTimerDomino(t *testing.T) {
	// Timer-driven local checkpoints, a crash, and LatestConsistent
	// recovery: the run completes with the correct result; rollbacks
	// beyond the newest checkpoints measure the domino effect.
	clean := run(t, sim.Config{Program: corpus.JacobiFig1(4), Nproc: 4})
	res := run(t, sim.Config{
		Program:  corpus.JacobiFig1(4),
		Nproc:    4,
		Hooks:    Uncoordinated(5),
		Failures: []sim.Failure{{Proc: 2, AfterEvents: 18}},
		Recover:  recovery.LatestConsistent,
	})
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	for p := range clean.FinalVars {
		if clean.FinalVars[p]["x"] != res.FinalVars[p]["x"] {
			t.Errorf("proc %d x = %d, want %d", p, res.FinalVars[p]["x"], clean.FinalVars[p]["x"])
		}
	}
}

func TestUncoordinatedStatementModeUsesLocalIndexes(t *testing.T) {
	res := run(t, sim.Config{
		Program: corpus.JacobiFig1(3),
		Nproc:   3,
		Hooks:   Uncoordinated(0),
	})
	if res.Metrics.Checkpoints != int64(3*3) {
		t.Errorf("checkpoints = %d, want 9", res.Metrics.Checkpoints)
	}
	if res.Metrics.CtrlMessages != 0 {
		t.Errorf("ctrl = %d, want 0", res.Metrics.CtrlMessages)
	}
}

func TestCICOnZigzagProne(t *testing.T) {
	// The zigzag-prone placement is where communication-induced
	// checkpointing earns its keep: forced checkpoints break the would-be
	// Z-cycles and the index cuts stay consistent.
	const n = 4
	res := run(t, sim.Config{
		Program: corpus.ZigzagProne(3),
		Nproc:   n,
		Hooks:   CIC(),
	})
	assertIndexCutsConsistent(t, res.Store, n)
	if res.Metrics.Forced == 0 {
		t.Error("CIC took no forced checkpoints on the zigzag-prone pattern")
	}
}

// TestProtocolOverheadOrdering is the qualitative claim behind the paper's
// Figures 8-9: per checkpoint, the application-driven scheme exchanges no
// control messages, SaS exchanges 5(n-1), and C-L n(n-1) (markers); so for
// n > 6 C-L costs more than SaS, and both cost more than zero.
func TestProtocolOverheadOrdering(t *testing.T) {
	const n, iters = 8, 2
	prog := corpus.JacobiFig1(iters)

	appl := run(t, sim.Config{Program: prog, Nproc: n})
	sas := run(t, sim.Config{Program: prog, Nproc: n, Hooks: SaS()})
	cl := run(t, sim.Config{Program: prog, Nproc: n, Hooks: CL()})

	if appl.Metrics.CtrlMessages != 0 {
		t.Errorf("appl-driven ctrl = %d", appl.Metrics.CtrlMessages)
	}
	if !(sas.Metrics.CtrlMessages > appl.Metrics.CtrlMessages) {
		t.Error("SaS should cost more than appl-driven")
	}
	if !(cl.Metrics.CtrlMessages > sas.Metrics.CtrlMessages) {
		t.Errorf("C-L (%d) should cost more than SaS (%d) at n=%d",
			cl.Metrics.CtrlMessages, sas.Metrics.CtrlMessages, n)
	}
	// All three runs compute the same application answer.
	for p := 0; p < n; p++ {
		if appl.FinalVars[p]["x"] != sas.FinalVars[p]["x"] ||
			appl.FinalVars[p]["x"] != cl.FinalVars[p]["x"] {
			t.Errorf("proc %d results differ across protocols", p)
		}
	}
}

func BenchmarkSaSRound(b *testing.B) {
	prog := corpus.JacobiFig1(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Program: prog, Nproc: 4, Hooks: SaS(), DisableTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCLRound(b *testing.B) {
	prog := corpus.JacobiFig1(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Program: prog, Nproc: 4, Hooks: CL(), DisableTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// pruneSmoke is scripts/prune_smoke.sh's program: odd ranks checkpoint
// after receiving, so it needs Phase III before its straight cuts are
// consistent.
const pruneSmoke = `program prunesmoke
const MAXITER = 6
var x, y, tmp, iter
proc {
    iter = 0
    while iter < MAXITER {
        tmp = x + iter
        x = tmp + rank
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, x)
            recv(rank + 1, y)
        } else {
            recv(rank - 1, y)
            send(rank - 1, x)
            chkpt
        }
        tmp = 0
        iter = iter + 1
    }
}
`

// TestUncoordinatedSurvivesStorageFaults runs the uncoordinated baseline in
// statement mode behind the chaos store, with two crashes: a checkpoint that
// no longer loads costs the walk a step (Line.Degraded), never the run.
func TestUncoordinatedSurvivesStorageFaults(t *testing.T) {
	parsed, err := mpl.Parse(pruneSmoke)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Transform(parsed, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	prog := rep.Program
	clean := run(t, sim.Config{Program: prog, Nproc: 4})
	stores := map[string]func(t *testing.T) storage.Store{
		"mem":         func(*testing.T) storage.Store { return storage.NewMemory() },
		"incremental": func(*testing.T) storage.Store { return storage.NewIncremental(0) },
		"wal": func(t *testing.T) storage.Store {
			ws, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ws.Close() })
			return ws
		},
	}
	for name, open := range stores {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				cfg := sim.Config{
					Program:  prog,
					Nproc:    4,
					Hooks:    Uncoordinated(0),
					Recover:  recovery.LatestConsistent,
					Store:    chaos.New(open(t), seed, chaos.DefaultRates(0.3), nil),
					Failures: []sim.Failure{{Proc: 1, AfterEvents: 9}, {Proc: 2, AfterEvents: 14}},
				}
				chaos.Arm(&cfg, chaos.Faults{Seed: seed, StoreFaults: true}, nil)
				res := run(t, cfg)
				if !reflect.DeepEqual(res.FinalVars, clean.FinalVars) {
					t.Errorf("final state %v, want %v", res.FinalVars, clean.FinalVars)
				}
			})
		}
	}
}

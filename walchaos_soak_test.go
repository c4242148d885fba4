package repro_test

// WAL chaos soak: the acceptance test of the durable checkpoint log.
// Seeded runs drive concurrent saves and deletes into the WAL store while
// a deterministic injector kills it at arbitrary durability points
// (append / fsync / manifest write / rename / segment create / retire),
// tears in-flight batches, and flips bits in acknowledged record bodies.
// After every kill the store is REOPENED over the damaged directory and
// the fundamental invariant is checked:
//
//	every Save that returned nil is recovered — either byte-exact
//	(CRC-verified on read) or, if a flip rotted it, as ErrCorrupt;
//	NEVER missing and NEVER served with wrong contents. Acknowledged
//	deletes stay deleted. Torn tails are never served.
//
// Across >= 24 seeds (SOAK_SEEDS overrides; -short trims) with -race via
// `make walchaos`. One seed replays one fault schedule exactly: the
// injector is hash-deterministic and the store serializes consults.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/vclock"
)

type walKey struct{ proc, index, instance int }

// walOrd recovers the workload ordinal a key was minted from (ord%8 is the
// proc, ord/8 the index), so checks can recompute per-key lane choices.
func walOrd(k walKey) int { return k.index*8 + k.proc }

// walPruned selects the liveness-pruned lane: every third ordinal writes a
// manifest-carrying snapshot, the shape the runtime persists for
// application checkpoints.
func walPruned(ord int) bool { return ord%3 == 2 }

func walSnap(k walKey, val int) storage.Snapshot {
	clk := vclock.New(k.proc + 1)
	clk[k.proc] = uint64(val)
	s := storage.Snapshot{
		Proc: k.proc, CFGIndex: k.index, Instance: k.instance,
		Clock: clk,
		Vars:  map[string]int{"v": val},
		PC:    fmt.Sprintf("pc%d", val),
	}
	if walPruned(walOrd(k)) {
		s.Manifest = []string{"v"}
	}
	return s
}

// walLedger tracks, under lock, what the workload was told: which saves
// and deletes were acknowledged, and which deletes were attempted (their
// tombstone may have hit disk even though the ack died with the crash).
type walLedger struct {
	mu           sync.Mutex
	acked        map[walKey]int // key -> expected Vars["v"]
	deleted      map[walKey]bool
	delAttempted map[walKey]bool
}

func newWALLedger() *walLedger {
	return &walLedger{
		acked:        map[walKey]int{},
		deleted:      map[walKey]bool{},
		delAttempted: map[walKey]bool{},
	}
}

// verify checks the whole ledger against a freshly recovered store.
// Returns the corrupt keys seen (for optional scrubbing).
func (l *walLedger) verify(t *testing.T, w *wal.Store, seed int64, round int) []walKey {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var corrupt []walKey
	for k, want := range l.acked {
		s, err := w.Get(k.proc, k.index, k.instance)
		switch {
		case err == nil:
			if s.Vars["v"] != want || s.PC != fmt.Sprintf("pc%d", want) {
				t.Fatalf("seed %d round %d: acked save %v recovered with WRONG contents: got v=%d want %d",
					seed, round, k, s.Vars["v"], want)
			}
			// Pruned-lane oracle: an acked pruned checkpoint must keep its
			// manifest (it is inside the CRC'd payload) and every live
			// variable — the v check above — across crash and reopen.
			if pruned := walPruned(walOrd(k)); pruned != (len(s.Manifest) == 1 && s.Manifest[0] == "v") {
				t.Fatalf("seed %d round %d: acked save %v recovered with manifest %v, pruned-lane=%v",
					seed, round, k, s.Manifest, pruned)
			}
		case errors.Is(err, storage.ErrCorrupt):
			// Acceptable only because flips model media rot of the body;
			// the damage is detected, attributed, and never served.
			corrupt = append(corrupt, k)
		case errors.Is(err, storage.ErrNotFound) && l.delAttempted[k]:
			// An unacked delete's tombstone beat the crash to disk.
			delete(l.acked, k)
			l.deleted[k] = true
		default:
			t.Fatalf("seed %d round %d: acked save %v LOST after crash+reopen: %v", seed, round, k, err)
		}
	}
	for k := range l.deleted {
		if _, err := w.Get(k.proc, k.index, k.instance); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("seed %d round %d: acked delete %v resurrected: %v", seed, round, k, err)
		}
	}
	return corrupt
}

// killLog remembers the last kill its injector decided. The store consults
// under its mutex and stops consulting once dead, so when a round ends with
// the store killed, that decision is the crash point that took effect (an
// earlier "after" drawn at a before-only consult, say, was ignored).
type killLog struct {
	wal.Injector
	op   wal.Op
	kill wal.Kill
}

func (kl *killLog) Decide(op wal.Op, seq uint64, size int) wal.Fault {
	f := kl.Injector.Decide(op, seq, size)
	if f.Kill != wal.KillNone {
		kl.op, kl.kill = op, f.Kill
	}
	return f
}

func TestWALChaosSoak(t *testing.T) {
	defSeeds := 24
	if testing.Short() {
		defSeeds = 4
	}
	seeds := soakSeeds(t, defSeeds)

	var (
		aggMu      sync.Mutex
		aggKills   int64
		aggFlips   int64
		aggReopens int64
		aggAcked   int64
		killedAt   [wal.OpRetire + 1][wal.KillAfter + 1]int // effective crash points
	)
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ledger := newWALLedger()
			const (
				rounds    = 12
				writers   = 4
				perWriter = 40
			)
			var kills, flips, reopens int64
			next := 0 // next fresh key ordinal

			for round := 0; round < rounds; round++ {
				// A fresh injector per round varies the fault schedule while
				// keeping the whole run replayable from (seed, round).
				inj := chaos.NewWALInjector(seed<<8|int64(round), chaos.WALRates{
					CrashRate: 0.004,
					FlipRate:  0.002,
				})
				kl := &killLog{Injector: inj}
				// Tiny segments force rotation + compaction under fire; odd
				// rounds rotate and compact on every batch, because the
				// manifest protocol's crash points are consulted an order of
				// magnitude less often than append and fsync and the coverage
				// bar below wants each of them killed both ways.
				segBytes := int64(1 << 10)
				if round%2 == 1 {
					segBytes = 1
				}
				w, err := wal.Open(dir, wal.Options{
					MaxSegmentBytes:     segBytes,
					CompactMinDeadBytes: 1,
					Injector:            kl,
				})
				if err != nil {
					t.Fatalf("seed %d round %d: recovery failed to open the damaged log: %v", seed, round, err)
				}
				if round > 0 {
					reopens++
				}

				// Invariant check against everything acked in prior rounds.
				corrupt := ledger.verify(t, w, seed, round)
				// Scrub every other round: quarantined keys become durable
				// tombstones (and must STAY gone after later reopens). A kill
				// can land mid-scrub with the tombstones on disk and no ack,
				// so mark the keys delete-attempted FIRST — then a landed
				// tombstone reads as an ordinary unacked delete.
				if round%2 == 1 && len(corrupt) > 0 {
					ledger.mu.Lock()
					for _, k := range corrupt {
						ledger.delAttempted[k] = true
					}
					ledger.mu.Unlock()
					if _, err := w.Scrub(); err == nil {
						ledger.mu.Lock()
						for _, k := range corrupt {
							delete(ledger.acked, k)
							ledger.deleted[k] = true
						}
						ledger.mu.Unlock()
					} else if !errors.Is(err, wal.ErrCrashed) {
						t.Fatalf("seed %d round %d: scrub: %v", seed, round, err)
					}
				}

				// Concurrent workload: each writer owns a disjoint key range;
				// every fifth key is deleted right after saving, and after
				// every fourth save the writer compacts the log under the
				// others' feet.
				base := next
				next += writers * perWriter
				var wg sync.WaitGroup
				for wr := 0; wr < writers; wr++ {
					wg.Add(1)
					go func(wr int) {
						defer wg.Done()
						for i := 0; i < perWriter; i++ {
							ord := base + wr*perWriter + i
							k := walKey{proc: ord % 8, index: ord / 8, instance: 0}
							val := 1000 + ord
							err := w.Save(walSnap(k, val))
							switch {
							case err == nil:
								ledger.mu.Lock()
								ledger.acked[k] = val
								ledger.mu.Unlock()
							case errors.Is(err, wal.ErrCrashed):
								return
							default:
								t.Errorf("seed %d round %d: Save(%v) failed oddly: %v", seed, round, k, err)
								return
							}
							if ord%4 == 3 {
								if err := w.Compact(); errors.Is(err, wal.ErrCrashed) {
									return
								} else if err != nil {
									t.Errorf("seed %d round %d: Compact failed oddly: %v", seed, round, err)
								}
							}
							if ord%5 == 4 {
								derr := w.Delete(k.proc, k.index, k.instance)
								ledger.mu.Lock()
								switch {
								case derr == nil:
									delete(ledger.acked, k)
									ledger.deleted[k] = true
									ledger.delAttempted[k] = true
								case errors.Is(derr, wal.ErrCrashed):
									ledger.delAttempted[k] = true
								case errors.Is(derr, storage.ErrNotFound):
									// fine: save may itself have been unacked
								default:
									t.Errorf("seed %d round %d: Delete(%v) failed oddly: %v", seed, round, k, derr)
								}
								ledger.mu.Unlock()
								if errors.Is(derr, wal.ErrCrashed) {
									return
								}
							}
						}
					}(wr)
				}
				wg.Wait()
				st := inj.Stats()
				kills += st.Kills
				flips += st.Flips
				w.Close()
				if w.Killed() {
					aggMu.Lock()
					killedAt[kl.op][kl.kill]++
					aggMu.Unlock()
				}
			}

			// Final recovery with NO injector: everything the ledger holds
			// must verify clean one last time.
			w, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("seed %d: final recovery failed: %v", seed, err)
			}
			defer w.Close()
			ledger.verify(t, w, seed, rounds)
			// Recovery must also never SERVE damage through bulk reads:
			// List either succeeds with verified records or fails ErrCorrupt.
			for p := 0; p < 8; p++ {
				if _, err := w.List(p); err != nil && !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("seed %d: List(%d) after recovery: %v", seed, p, err)
				}
			}

			ledger.mu.Lock()
			ackedCount := int64(len(ledger.acked))
			ledger.mu.Unlock()
			aggMu.Lock()
			aggKills += kills
			aggFlips += flips
			aggReopens += reopens
			aggAcked += ackedCount
			aggMu.Unlock()
		})
	}

	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		t.Logf("walchaos soak: acked=%d kills=%d flips=%d reopens=%d across %d seeds; crash points by op [none before after]: %v",
			aggAcked, aggKills, aggFlips, aggReopens, seeds, killedAt)
		if fleetAssertions(t, seeds, defSeeds) && !testing.Short() {
			// The matrix is vacuous if the machinery never fired.
			if aggKills == 0 {
				t.Error("no crash point ever fired across the full matrix")
			}
			if aggFlips == 0 {
				t.Error("no bit flip ever fired across the full matrix")
			}
			if aggReopens == 0 {
				t.Error("no kill/reopen loop ever ran")
			}
			if aggAcked < 1000 {
				t.Errorf("only %d live acked checkpoints verified, want >= 1000", aggAcked)
			}
			for op, at := range killedAt {
				if at[wal.KillBefore] == 0 || at[wal.KillAfter] == 0 {
					t.Errorf("%s killed %d times before and %d after across the full matrix, want both",
						wal.Op(op), at[wal.KillBefore], at[wal.KillAfter])
				}
			}
		}
	})
}

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
// A retiring lane saves snapshots carrying N, so the log retires
// below the newest two complete straight cuts under the same kills and
// flips. There the ledger rule is: an acknowledged key the log retains is
// served or honestly ErrCorrupt, a key retired before a crash is never
// served after the reopen, and the reopened log holds nothing its own rule
// retires.
//
// Across >= 24 seeds (SOAK_SEEDS overrides; -short trims) with -race via
// `make walchaos`. One seed replays one fault schedule exactly: the
// injector is hash-deterministic and the store serializes consults.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// walPruned selects the liveness-pruned lane: every third ordinal saves only
// the live variable v, the shape the runtime persists for application
// checkpoints; the full lane saves a dead variable beside it.
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
	if !walPruned(walOrd(k)) {
		s.Vars["dead"] = -val
	}
	return s
}

// The retiring lane: one writer per block saves, in lockstep, two CFG
// indexes in turn, steps times, on the block's width processes [first,
// first+width), each snapshot carrying N = width and one ring neighbour in
// its row. A block starts at a multiple of its width, as an application's
// processes do (KeyIndex.PutRetaining). The widest block is as wide as the
// chaos soak's widest run. A key's value is a function of the key, so a save
// that landed unacknowledged reads back as a later save expects.
var laneBlocks = []struct{ first, width, steps int }{{8, 4, 20}, {12, 4, 20}, {64, 64, 1}}

const laneBase, laneEnd = 8, 128 // the lane's processes, 16–63 unused

func laneVal(k walKey) int { return 1_000_000 + k.proc*100_000 + k.index*10_000 + k.instance }

// laneBlock returns the first process and the width of p's lane block.
func laneBlock(p int) (first, width int) {
	for _, b := range laneBlocks {
		if p >= b.first && p < b.first+b.width {
			return b.first, b.width
		}
	}
	panic(fmt.Sprintf("process %d is in no lane block", p))
}

// laneFront returns F of lane block first's index from latest, the highest
// instance each process holds there, once all of the block hold one.
func laneFront(latest func(p int) (int, bool), first int) (int, bool) {
	f := 0
	_, width := laneBlock(first)
	for p := first; p < first+width; p++ {
		inst, ok := latest(p)
		if !ok {
			return 0, false
		}
		if p == first || inst < f {
			f = inst
		}
	}
	return f, true
}

// walLedger tracks, under lock, what the workload was told: which saves
// and deletes were acknowledged, and which deletes were attempted (their
// tombstone may have hit disk even though the ack died with the crash).
// For the retiring lane it also keeps each (proc, index)'s acknowledged
// instances still held, the next instance to save, and the keys retired.
type walLedger struct {
	mu           sync.Mutex
	acked        map[walKey]int // key -> expected Vars["v"]
	deleted      map[walKey]bool
	delAttempted map[walKey]bool
	held         map[[2]int][]int // lane (proc, index) -> acked instances held, ascending
	next         map[[2]int]int
	retired      map[walKey]bool
}

func newWALLedger() *walLedger {
	return &walLedger{
		acked:        map[walKey]int{},
		deleted:      map[walKey]bool{},
		delAttempted: map[walKey]bool{},
		held:         map[[2]int][]int{},
		next:         map[[2]int]int{},
		retired:      map[walKey]bool{},
	}
}

// hold records lane key k acknowledged, then retires, as the log did when it
// committed k, every acknowledged instance of k's block and index below
// F − 1. Only acknowledged keys count, so F is never above the log's.
func (l *walLedger) hold(k walKey) {
	l.acked[k] = laneVal(k)
	pi := [2]int{k.proc, k.index}
	l.next[pi] = max(l.next[pi], k.instance+1)
	if i, found := slices.BinarySearch(l.held[pi], k.instance); !found {
		l.held[pi] = slices.Insert(l.held[pi], i, k.instance)
	}
	first, width := laneBlock(k.proc)
	f, ok := laneFront(func(p int) (int, bool) {
		insts := l.held[[2]int{p, k.index}]
		if len(insts) == 0 {
			return 0, false
		}
		return insts[len(insts)-1], true
	}, first)
	if !ok {
		return
	}
	for p := first; p < first+width; p++ {
		insts := l.held[[2]int{p, k.index}]
		for len(insts) > 0 && insts[0] < f-1 {
			rk := walKey{p, k.index, insts[0]}
			delete(l.acked, rk)
			l.retired[rk], insts = true, insts[1:]
		}
		l.held[[2]int{p, k.index}] = insts
	}
}

// unhold forgets lane key k: deleted, or retired by the reopened log.
func (l *walLedger) unhold(k walKey) {
	pi := [2]int{k.proc, k.index}
	if i, found := slices.BinarySearch(l.held[pi], k.instance); found {
		l.held[pi] = slices.Delete(l.held[pi], i, i+1)
	}
}

// verify checks the whole ledger against a freshly recovered store.
// Returns the corrupt keys seen (for optional scrubbing).
func (l *walLedger) verify(t *testing.T, w *wal.Store, seed int64, round int) []walKey {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	// The reopened log's own front of each lane block and index, from the
	// keys it holds, quarantined ones included.
	fronts := map[[2]int]int{}
	var keys [laneEnd - laneBase][]storage.Key
	for i := range keys {
		var err error
		if keys[i], err = w.Keys(laneBase + i); err != nil {
			t.Fatalf("seed %d round %d: Keys(%d): %v", seed, round, laneBase+i, err)
		}
	}
	for _, b := range laneBlocks {
		first := b.first
		for idx := 1; idx <= 2; idx++ {
			f, ok := laneFront(func(p int) (int, bool) {
				inst, ok := -1, false
				for _, k := range keys[p-laneBase] {
					if k.CFGIndex == idx {
						inst, ok = k.Instance, true
					}
				}
				return inst, ok
			}, first)
			if ok {
				fronts[[2]int{first, idx}] = f
			}
		}
	}
	below := func(k walKey) bool {
		first, _ := laneBlock(k.proc)
		f, ok := fronts[[2]int{first, k.index}]
		return ok && k.instance < f-1
	}
	for _, ks := range keys {
		for _, k := range ks {
			if below(walKey{k.Proc, k.CFGIndex, k.Instance}) {
				t.Fatalf("seed %d round %d: the reopened log holds %v below its F − 1", seed, round, k)
			}
		}
	}
	for k := range l.retired {
		if _, err := w.Get(k.proc, k.index, k.instance); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("seed %d round %d: %v, retired before the crash, after reopen: %v", seed, round, k, err)
		}
	}
	var corrupt []walKey
	for k, want := range l.acked {
		s, err := w.Get(k.proc, k.index, k.instance)
		switch {
		case err == nil:
			if s.Vars["v"] != want || s.PC != fmt.Sprintf("pc%d", want) {
				t.Fatalf("seed %d round %d: acked save %v recovered with WRONG contents: got v=%d want %d",
					seed, round, k, s.Vars["v"], want)
			}
			// Pruned-lane oracle: an acked checkpoint keeps exactly the
			// variables its lane saved — v alone when pruned, v and the
			// dead one when full — across crash and reopen.
			pruned, saved := walPruned(walOrd(k)), 2
			if pruned {
				saved = 1
			}
			if len(s.Vars) != saved || (!pruned && s.Vars["dead"] != -want) {
				t.Fatalf("seed %d round %d: acked save %v recovered with variables %v, pruned-lane=%v",
					seed, round, k, s.Vars, pruned)
			}
		case errors.Is(err, storage.ErrCorrupt):
			// Acceptable only because flips model media rot of the body;
			// the damage is detected, attributed, and never served.
			corrupt = append(corrupt, k)
		case errors.Is(err, storage.ErrNotFound) && l.delAttempted[k]:
			// An unacked delete's tombstone beat the crash to disk.
			delete(l.acked, k)
			l.deleted[k] = true
			l.unhold(k)
		case errors.Is(err, storage.ErrNotFound) && below(k):
			// Retired by a save that landed unacknowledged and moved F on.
			delete(l.acked, k)
			l.retired[k] = true
			l.unhold(k)
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
		aggRetired int64
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
							ledger.unhold(k)
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
				for _, b := range laneBlocks {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for step := 0; step < b.steps; step++ {
							idx := 1 + step%2
							// Laggards first, so that a kill mid-step leaves
							// the block's front where the next round resumes.
							order := make([]int, b.width)
							ledger.mu.Lock()
							for i := range order {
								order[i] = b.first + i
							}
							slices.SortStableFunc(order, func(a, c int) int {
								return cmp.Compare(ledger.next[[2]int{a, idx}], ledger.next[[2]int{c, idx}])
							})
							ledger.mu.Unlock()
							for _, p := range order {
								ledger.mu.Lock()
								k := walKey{p, idx, ledger.next[[2]int{p, idx}]}
								ledger.mu.Unlock()
								s := walSnap(k, laneVal(k))
								s.N = b.width
								s.Peers = storage.Row{{Peer: (p - b.first + 1) % b.width, Sent: k.instance + 1}}
								// A duplicate landed before a crash: the log
								// holds the same bytes.
								switch err := w.Save(s); {
								case err == nil || errors.Is(err, storage.ErrDuplicate):
									ledger.mu.Lock()
									ledger.hold(k)
									ledger.mu.Unlock()
								case errors.Is(err, wal.ErrCrashed):
									return
								default:
									t.Errorf("seed %d round %d: lane Save(%v) failed oddly: %v", seed, round, k, err)
									return
								}
							}
						}
					}()
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
			for p := 0; p < laneEnd; p++ {
				if _, err := w.List(p); err != nil && !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("seed %d: List(%d) after recovery: %v", seed, p, err)
				}
			}

			ledger.mu.Lock()
			ackedCount, retiredCount := int64(len(ledger.acked)), int64(len(ledger.retired))
			ledger.mu.Unlock()
			aggMu.Lock()
			aggKills += kills
			aggFlips += flips
			aggReopens += reopens
			aggAcked += ackedCount
			aggRetired += retiredCount
			aggMu.Unlock()
		})
	}

	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		t.Logf("walchaos soak: acked=%d retired=%d kills=%d flips=%d reopens=%d across %d seeds; crash points by op [none before after]: %v",
			aggAcked, aggRetired, aggKills, aggFlips, aggReopens, seeds, killedAt)
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
			if aggRetired == 0 {
				t.Error("the retiring lane never retired an acked checkpoint")
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

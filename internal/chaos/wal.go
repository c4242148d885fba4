package chaos

import (
	"sync"

	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// WALRates sets per-consult fault probabilities for the WAL store's
// durability points, each in [0, 1].
type WALRates struct {
	// CrashRate is the probability any single durability point (append,
	// fsync, manifest write/rename, segment create, retire) kills the
	// store. Whether the kill lands before or after the effect — and, for
	// appends, how many unsynced bytes survive (a torn write) — is drawn
	// from the same hash.
	CrashRate float64
	// FlipRate is the probability an append batch gets one bit flipped in
	// a record body: silent media rot of an acknowledged checkpoint,
	// detected only by CRC at read or recovery time.
	FlipRate float64
}

// WALStats counts the faults a WALInjector injected.
type WALStats struct {
	Kills     int64 // crash points fired (the store is dead after the first)
	Flips     int64
	TornKills int64 // kills that also tore the in-flight append
}

// WALInjector is a seeded, hash-deterministic wal.Injector. Every decision
// is a pure function of (seed, fault class, op, consult sequence) — the
// same scheme as the storage and network injectors, so goroutine
// interleaving cannot perturb which consult faults. Because the WAL store
// serializes consults under its mutex, one seed replays one fault pattern
// exactly.
type WALInjector struct {
	seed  int64
	rates WALRates

	mu    sync.Mutex
	stats WALStats
}

var _ wal.Injector = (*WALInjector)(nil)

// NewWALInjector returns an injector for the given seed and rates.
func NewWALInjector(seed int64, rates WALRates) *WALInjector {
	return &WALInjector{seed: seed, rates: rates}
}

// Fault classes for the WAL consult stream, disjoint from the storage
// wrapper's classes so a shared seed draws independent streams.
const (
	classWALCrash = iota + 64
	classWALFlip
)

// Decide implements wal.Injector.
func (wi *WALInjector) Decide(op wal.Op, seq uint64, size int) wal.Fault {
	// Key the draw on (op, seq): one independent stream per consult point.
	// mix()'s attempt slot carries seq so long runs do not wrap the 32-bit
	// key fields.
	k := storage.Key{CFGIndex: int(op)}
	var f wal.Fault

	h := mix(wi.seed, classWALCrash, k, seq)
	if hit(h, wi.rates.CrashRate) {
		// A middle bit: hit() spends the top ones, which are all zero at the
		// soak's rates.
		if h&(1<<32) != 0 {
			f.Kill = wal.KillBefore
		} else {
			f.Kill = wal.KillAfter
		}
		if op == wal.OpAppend && size > 0 {
			// Tear the in-flight batch: a deterministic fraction of its
			// unsynced bytes land.
			f.Keep = int((h >> 20) % uint64(size+1))
		}
		wi.mu.Lock()
		wi.stats.Kills++
		if f.Keep > 0 {
			wi.stats.TornKills++
		}
		wi.mu.Unlock()
		return f
	}

	if op == wal.OpAppend && size > 0 {
		h = mix(wi.seed, classWALFlip, k, seq)
		if hit(h, wi.rates.FlipRate) {
			f.Flip = true
			f.FlipAt = int((h >> 17) % uint64(size))
			wi.mu.Lock()
			wi.stats.Flips++
			wi.mu.Unlock()
		}
	}
	return f
}

// Stats returns the injected fault counts so far.
func (wi *WALInjector) Stats() WALStats {
	wi.mu.Lock()
	defer wi.mu.Unlock()
	return wi.stats
}

// Package chaos injects faults into a run deterministically: a storage
// wrapper that fails, tears, corrupts, and delays operations at seeded
// per-class rates, and schedule generators that derive multi-process,
// multi-incarnation crash schedules from (λ, seed).
//
// Every fault decision is a pure function of (seed, fault class, snapshot
// key, per-key attempt number) — a hash, not a shared sequential RNG — so
// concurrent goroutine interleaving cannot perturb which operations fault.
// The same seed reproduces the same fault pattern for the same operation
// sequence, which is what makes chaos failures debuggable.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Rates sets the per-operation fault probabilities, each in [0, 1].
type Rates struct {
	// WriteError fails a Save with storage.ErrTransient before anything is
	// persisted (the retry layer usually absorbs it).
	WriteError float64
	// ReadError fails a Get/Latest with storage.ErrTransient.
	ReadError float64
	// TornWrite persists the snapshot but leaves it unreadable AND reports
	// the Save as failed — the half-written file of a crash mid-write.
	// Re-saving the same key repairs it (an atomic rewrite).
	TornWrite float64
	// BitFlip persists the snapshot, reports success, and silently marks
	// the stored copy corrupt — media rot detected only at read time.
	BitFlip float64
	// MaxLatency, when positive, delays every operation by a deterministic
	// per-operation fraction of it.
	MaxLatency time.Duration
}

// DefaultRates spreads one knob across the fault classes: the visible
// failures (write/read errors) at the full rate, the data-damaging ones
// (torn writes, bit flips) at half, plus a small operation latency.
func DefaultRates(rate float64) Rates {
	return Rates{
		WriteError: rate,
		ReadError:  rate,
		TornWrite:  rate / 2,
		BitFlip:    rate / 2,
		MaxLatency: 200 * time.Microsecond,
	}
}

// Stats counts the faults a Store injected.
type Stats struct {
	WriteErrors int64
	ReadErrors  int64
	TornWrites  int64
	BitFlips    int64
	// Repairs counts torn-marked keys healed by a re-save.
	Repairs int64
}

// Total is the number of injected faults (repairs are recoveries, not
// faults, and are not counted).
func (s Stats) Total() int64 {
	return s.WriteErrors + s.ReadErrors + s.TornWrites + s.BitFlips
}

// Fault classes. Distinct constants keep the per-class hash streams
// independent: the write-error decision for a key never correlates with its
// bit-flip decision.
const (
	classWrite = iota + 1
	classRead
	classTorn
	classFlip
	classLatency
)

func className(class int) string {
	switch class {
	case classWrite:
		return "write-error"
	case classRead:
		return "read-error"
	case classTorn:
		return "torn-write"
	case classFlip:
		return "bit-flip"
	default:
		return "latency"
	}
}

type opKey struct {
	class int
	k     storage.Key
}

// Store wraps a storage.Store with seeded fault injection. The inner store
// only ever holds CLEAN snapshots: corruption is tracked as marks at the
// wrapper level and surfaces as storage.ErrCorrupt on reads, simulating
// checksum detection without poisoning the inner store's own structures
// (a log's records, an incremental store's delta chains).
//
// Store implements storage.Scrubber: Scrub removes marked keys from the
// inner store so replay can regenerate them.
type Store struct {
	inner storage.Store
	rates Rates
	seed  int64
	obsv  obs.Observer // nil: no fault events

	mu       sync.Mutex
	corrupt  map[storage.Key]string // marked-unreadable keys -> reason
	attempts map[opKey]uint64
	stats    Stats
}

var _ storage.Store = (*Store)(nil)
var _ storage.Scrubber = (*Store)(nil)

// New wraps inner with fault injection. The observer may be nil; when set
// it receives one KindFault event per injected fault.
func New(inner storage.Store, seed int64, rates Rates, obsv obs.Observer) *Store {
	return &Store{
		inner:    inner,
		rates:    rates,
		seed:     seed,
		obsv:     obsv,
		corrupt:  make(map[storage.Key]string),
		attempts: make(map[opKey]uint64),
	}
}

// mix is a splitmix64-style finalizer over the decision inputs. Each
// (seed, class, key, attempt) tuple gets an independent uniform draw.
func mix(seed int64, class int, k storage.Key, attempt uint64) uint64 {
	x := uint64(seed)
	x ^= uint64(class) * 0x9e3779b97f4a7c15
	x ^= uint64(uint32(k.Proc))<<42 ^ uint64(uint32(k.CFGIndex))<<21 ^ uint64(uint32(k.Instance))
	x ^= attempt * 0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll draws the next decision value for (class, key), advancing the
// per-key attempt counter so retries of the same operation re-roll.
func (c *Store) roll(class int, k storage.Key) uint64 {
	ok := opKey{class, k}
	attempt := c.attempts[ok]
	c.attempts[ok] = attempt + 1
	return mix(c.seed, class, k, attempt)
}

// hit converts a draw into a fault decision at the given rate.
func hit(h uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(h>>11)/(1<<53) < rate
}

// fault records an injected fault and publishes it.
func (c *Store) fault(class int, k storage.Key, count *int64) {
	*count++
	if c.obsv != nil {
		c.obsv.OnEvent(obs.Event{
			Kind: obs.KindFault, Proc: k.Proc, Inc: -1,
			Tag:   className(class),
			Label: fmt.Sprintf("index=%d instance=%d", k.CFGIndex, k.Instance),
		})
	}
}

// latency sleeps a deterministic per-operation fraction of MaxLatency.
// Called without the lock held.
func (c *Store) latency(k storage.Key) {
	if c.rates.MaxLatency <= 0 {
		return
	}
	c.mu.Lock()
	h := c.roll(classLatency, k)
	c.mu.Unlock()
	time.Sleep(time.Duration(float64(c.rates.MaxLatency) * float64(h>>11) / (1 << 53)))
}

// Save implements storage.Store.
func (c *Store) Save(s storage.Snapshot) error {
	k := s.Key()
	c.latency(k)
	c.mu.Lock()
	if _, marked := c.corrupt[k]; marked {
		// The key holds a torn partial from a failed earlier attempt and
		// the inner store already has the clean body: treat the re-save as
		// an atomic rewrite that repairs it.
		delete(c.corrupt, k)
		c.stats.Repairs++
		c.mu.Unlock()
		return nil
	}
	if hit(c.roll(classWrite, k), c.rates.WriteError) {
		c.fault(classWrite, k, &c.stats.WriteErrors)
		c.mu.Unlock()
		return fmt.Errorf("%w: chaos: injected write error: %s", storage.ErrTransient, k)
	}
	torn := hit(c.roll(classTorn, k), c.rates.TornWrite)
	flip := !torn && hit(c.roll(classFlip, k), c.rates.BitFlip)
	c.mu.Unlock()

	if err := c.inner.Save(s); err != nil {
		return err
	}
	if torn {
		c.mu.Lock()
		c.corrupt[k] = "torn write"
		c.fault(classTorn, k, &c.stats.TornWrites)
		c.mu.Unlock()
		return fmt.Errorf("%w: chaos: torn write: %s", storage.ErrTransient, k)
	}
	if flip {
		c.mu.Lock()
		c.corrupt[k] = "bit flip"
		c.fault(classFlip, k, &c.stats.BitFlips)
		c.mu.Unlock()
	}
	return nil
}

// readFault rolls the read-error and corruption checks for key k.
func (c *Store) readFault(k storage.Key) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit(c.roll(classRead, k), c.rates.ReadError) {
		c.fault(classRead, k, &c.stats.ReadErrors)
		return fmt.Errorf("%w: chaos: injected read error: %s", storage.ErrTransient, k)
	}
	if reason, marked := c.corrupt[k]; marked {
		return fmt.Errorf("%w: chaos: %s: %s", storage.ErrCorrupt, reason, k)
	}
	return nil
}

// Get implements storage.Store.
func (c *Store) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	k := storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance}
	c.latency(k)
	if err := c.readFault(k); err != nil {
		return storage.Snapshot{}, err
	}
	return c.inner.Get(proc, cfgIndex, instance)
}

// Latest implements storage.Store. The fault roll keys on (proc, index)
// alone — instance -1 — so retries of the same Latest re-roll coherently.
func (c *Store) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	rollKey := storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: -1}
	c.latency(rollKey)
	c.mu.Lock()
	if hit(c.roll(classRead, rollKey), c.rates.ReadError) {
		c.fault(classRead, rollKey, &c.stats.ReadErrors)
		c.mu.Unlock()
		return storage.Snapshot{}, fmt.Errorf("%w: chaos: injected read error: proc=%d index=%d",
			storage.ErrTransient, proc, cfgIndex)
	}
	c.mu.Unlock()
	s, err := c.inner.Latest(proc, cfgIndex)
	if err != nil {
		return s, err
	}
	c.mu.Lock()
	reason, marked := c.corrupt[s.Key()]
	c.mu.Unlock()
	if marked {
		return storage.Snapshot{}, fmt.Errorf("%w: chaos: %s: %s", storage.ErrCorrupt, reason, s.Key())
	}
	return s, nil
}

// List implements storage.Store: each snapshot is read with Get, so a
// process with any marked snapshot fails the whole listing.
func (c *Store) List(proc int) ([]storage.Snapshot, error) { return storage.List(c, proc) }

// Indexes implements storage.Store; like Keys it injects nothing.
func (c *Store) Indexes(n int) ([]int, error) { return storage.Indexes(c, n) }

// Keys implements storage.KeyLister. It injects nothing, and a marked key is
// still a key: recovery takes its candidate cuts from Keys and meets the
// mark when Get loads one.
func (c *Store) Keys(proc int) ([]storage.Key, error) { return storage.Keys(c.inner, proc) }

// Delete implements storage.Store.
func (c *Store) Delete(proc, cfgIndex, instance int) error {
	k := storage.Key{Proc: proc, CFGIndex: cfgIndex, Instance: instance}
	c.mu.Lock()
	delete(c.corrupt, k)
	c.mu.Unlock()
	return c.inner.Delete(proc, cfgIndex, instance)
}

// Scrub implements storage.Scrubber: the inner store scrubs what is really
// damaged, and then every marked key is deleted from it, so that replay can
// regenerate it, and unmarked. A mark whose key the store no longer holds
// (deleted out of band, or retired) is cleared the same way.
func (c *Store) Scrub() (storage.ScrubReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := storage.Scrub(c.inner)
	if err != nil {
		return rep, err
	}
	keys := make([]storage.Key, 0, len(c.corrupt))
	for k := range c.corrupt {
		keys = append(keys, k)
	}
	storage.SortKeys(keys)
	for _, k := range keys {
		if err := c.inner.Delete(k.Proc, k.CFGIndex, k.Instance); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return rep, err
		}
		rep.Quarantined = append(rep.Quarantined, storage.SnapshotRef{Key: k, Reason: c.corrupt[k]})
		delete(c.corrupt, k)
	}
	return rep, nil
}

// Stats returns the fault counts so far.
func (c *Store) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

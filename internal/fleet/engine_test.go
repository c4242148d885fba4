package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/wal"
)

func TestEngineCleanFleetAllSucceed(t *testing.T) {
	e := New(Config{Jobs: 20, MaxInFlight: 32, Seed: 1})
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, rep)
	}
	if !rep.Conserved() {
		t.Fatalf("not conserved:\n%s", rep)
	}
	if rep.Arrivals != 20 || rep.Admitted != 20 || rep.RejectedTotal() != 0 {
		t.Fatalf("arrivals=%d admitted=%d rejected=%d, want 20/20/0",
			rep.Arrivals, rep.Admitted, rep.RejectedTotal())
	}
	if rep.Buckets[BucketSucceeded] != 20 {
		t.Fatalf("buckets = %v, want 20 succeeded", rep.Buckets)
	}
	if rep.DrainParked {
		t.Fatal("clean fleet parked jobs")
	}
}

func TestEngineBusinessTaxonomy(t *testing.T) {
	e := New(Config{Jobs: 10, Seed: 2, BusinessFailRate: 1.0})
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, rep)
	}
	if rep.Buckets[BucketBusinessFailed] != 10 {
		t.Fatalf("buckets = %v, want 10 business_failed", rep.Buckets)
	}
	// Business failures are application outcomes: the infrastructure
	// buckets stay empty.
	if rep.Buckets[BucketInfraFailed] != 0 || rep.Buckets[BucketParked] != 0 {
		t.Fatalf("business failures leaked into infra buckets: %v", rep.Buckets)
	}
}

func TestEngineRejectsAtCapacityNeverQueues(t *testing.T) {
	// One slot, back-to-back arrivals, jobs big enough to outlive the
	// arrival loop: almost everything must be rejected immediately —
	// admission never queues.
	e := New(Config{Jobs: 100, MaxInFlight: 1, Iters: 50, Seed: 3})
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, rep)
	}
	if !rep.Conserved() {
		t.Fatalf("not conserved:\n%s", rep)
	}
	if rep.Rejected[ReasonFleetCapacity] == 0 {
		t.Fatalf("no capacity rejections with MaxInFlight=1:\n%s", rep)
	}
	if rep.Admitted+rep.RejectedTotal() != 100 {
		t.Fatalf("lost arrivals:\n%s", rep)
	}
}

func TestEngineDrainParksInFlight(t *testing.T) {
	st := storage.NewMemory()
	e := New(Config{
		Jobs: 4, MaxInFlight: 4, Iters: 5000, Seed: 4,
		Store: st, DrainTimeout: 5 * time.Millisecond,
	})
	start := time.Now()
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, rep)
	}
	if !rep.DrainParked {
		t.Fatalf("drain deadline did not fire:\n%s", rep)
	}
	if rep.Buckets[BucketParked] == 0 {
		t.Fatalf("no jobs parked:\n%s", rep)
	}
	if !rep.Conserved() {
		t.Fatalf("not conserved:\n%s", rep)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("drain-park took %v; cancellation did not cut jobs short", el)
	}
	// Parked means parked, not lost: the jobs' checkpoints survive in the
	// shared store for a later resume.
	var snaps int
	for p := 0; p < 4*3; p++ {
		got, err := st.List(p)
		if err != nil {
			t.Fatalf("List(%d): %v", p, err)
		}
		snaps += len(got)
	}
	if snaps == 0 {
		t.Fatal("no checkpoints persisted for parked jobs")
	}
}

func TestEngineExternalDrainStopsArrivals(t *testing.T) {
	// A paced stream far larger than the test budget; Drain (the SIGTERM
	// path) must cut it short and still balance the books.
	e := New(Config{Jobs: 1_000_000, ArrivalRate: 2000, Seed: 5})
	go func() {
		time.Sleep(50 * time.Millisecond)
		e.Drain()
	}()
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, rep)
	}
	if rep.Arrivals >= 1_000_000 {
		t.Fatalf("drain did not stop the arrival stream: %d arrivals", rep.Arrivals)
	}
	if !rep.Conserved() {
		t.Fatalf("not conserved:\n%s", rep)
	}
}

// windowStore fails every op transiently for a fixed wall-clock window
// starting at its first operation — a brownout with a hard start and end.
// (Time-based, not op-count-based: while the breaker is open, sheds never
// reach the store, so an op-counted window would never drain.)
type windowStore struct {
	storage.Store
	dur   time.Duration
	mu    sync.Mutex
	start time.Time
}

func (w *windowStore) browned() error {
	w.mu.Lock()
	if w.start.IsZero() {
		w.start = time.Now()
	}
	brown := time.Since(w.start) < w.dur
	w.mu.Unlock()
	if brown {
		return storage.ErrTransient
	}
	return nil
}

func (w *windowStore) Save(s storage.Snapshot) error {
	if err := w.browned(); err != nil {
		return err
	}
	return w.Store.Save(s)
}

func (w *windowStore) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	if err := w.browned(); err != nil {
		return storage.Snapshot{}, err
	}
	return w.Store.Latest(proc, cfgIndex)
}

func TestEngineBreakerOpensAndRecovers(t *testing.T) {
	// A brownout covering the stream's first 30ms: the breaker must trip
	// (shedding load off the sick store) and, once the window passes,
	// recover via half-open probes so later arrivals run clean.
	st := &windowStore{Store: storage.NewMemory(), dur: 30 * time.Millisecond}
	e := New(Config{
		Jobs: 60, MaxInFlight: 8, Iters: 10, Seed: 6, Store: st,
		ArrivalRate: 500, // ~120ms of paced arrivals: traffic outlives the brownout
	})
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, rep)
	}
	if !rep.Conserved() {
		t.Fatalf("not conserved:\n%s", rep)
	}
	if rep.Breaker.Opened == 0 {
		t.Fatalf("breaker never opened through the brownout:\n%s", rep)
	}
	if got := rep.Breaker.State; got != StateClosed {
		t.Fatalf("breaker state = %d after the store healed, want closed\n%s", got, rep)
	}
	if rep.Buckets[BucketSucceeded] == 0 {
		t.Fatalf("no job survived the brownout:\n%s", rep)
	}
}

// What a fleet job allocates, the engine and its WAL traffic included: a
// clean batch of 32 three-process jobs on a fresh log. Every job of a batch
// runs the one program the engine compiled, its network creates the four
// channels the program uses, and its four jitter generators are 16 bytes each
// (240 objects and 51 KB per job when each job compiled for itself and seeded
// math/rand sources; 102 and 14.5 KB when each job also snapshot the fleet's
// counters and copied its final variables and the program's constants; 83
// and 10.9 KB measured, 90 and 10.9 KB under -race).
func TestFleetJobAllocs(t *testing.T) {
	const jobs = 32
	batch := func() {
		ws, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Close()
		rep, err := New(Config{Jobs: jobs, MaxInFlight: jobs, Nproc: 3, Iters: 3, Seed: 5, Store: ws}).Run()
		if err != nil || rep.Buckets[BucketSucceeded] != jobs {
			t.Fatalf("Run: %v\n%s", err, rep)
		}
	}
	batch() // warm the frame and request pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batch()
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / jobs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / jobs
	t.Logf("a job allocates %.0f objects and %.1f KB", objects, kb)
	if objects > 120 || kb > 13 {
		t.Errorf("a job allocates %.0f objects and %.1f KB, want <= 120 and <= 13 KB", objects, kb)
	}
}

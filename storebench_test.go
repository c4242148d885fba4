package repro_test

// Store benchmarks: the durability cost of checkpointing at fleet scale.
// BenchmarkStoreAggregateSave is the headline number behind BENCH_store.json:
// 1000 concurrent jobs each persisting one checkpoint into a shared durable
// store. The WAL's group commit folds concurrent saves into one fsync per
// batch. BenchmarkStoreSingleSave is the contrast case — one uncontended
// saver, where batching cannot help and every save pays its own fsync.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/vclock"
)

func benchSnap(proc, instance int) storage.Snapshot {
	clk := vclock.New(4)
	clk[0] = uint64(instance + 1)
	return storage.Snapshot{
		Proc: proc, CFGIndex: 1, Instance: instance,
		Clock: clk,
		Vars:  map[string]int{"x": proc, "y": instance, "sum": proc + instance},
		PC:    fmt.Sprintf("s%d", instance),
	}
}

// BenchmarkStoreAggregateSave measures fleet-aggregate durable save
// throughput: 1000 concurrent savers per iteration against one shared
// store, every save individually acknowledged-durable before it returns.
func BenchmarkStoreAggregateSave(b *testing.B) {
	const jobs = 1000
	b.Run("wal", func(b *testing.B) {
		st := openTestStore(b, "wal", 0, wal.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			wg.Add(jobs)
			for j := 0; j < jobs; j++ {
				go func(j int) {
					defer wg.Done()
					if err := st.Save(benchSnap(j, i)); err != nil {
						b.Error(err)
					}
				}(j)
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "saves/s")
	})
}

// pruneBenchSnap models the liveness-minimized checkpoint shape: a stencil
// process whose environment holds 12 variables of which only 4 are live at
// the checkpoint site (the grid interior was folded into halos and
// accumulators before the site). The pruned variant is exactly what
// sim's runtime persists for an application checkpoint: the site's
// manifest variables only.
func pruneBenchSnap(proc, instance int, pruned bool) storage.Snapshot {
	clk := vclock.New(4)
	clk[0] = uint64(instance + 1)
	vars := map[string]int{
		"acc": proc + instance, "halo_l": instance, "halo_r": instance + 1, "iter": instance,
	}
	s := storage.Snapshot{
		Proc: proc, CFGIndex: 1, Instance: instance,
		Clock: clk,
		PC:    fmt.Sprintf("s%d", instance),
	}
	if pruned {
		s.Vars = vars
		return s
	}
	for i := 0; i < 8; i++ {
		vars[fmt.Sprintf("grid%d", i)] = proc*100 + instance + i
	}
	s.Vars = vars
	return s
}

// BenchmarkSaveBytesPruned pins the payload reduction and save latency of
// manifest-pruned checkpoints against full-environment ones, per store
// kind. payload_B/op is the serialized snapshot size each save persists;
// for the incremental store delta_B/op additionally shows how much smaller
// the delta chain gets when dead variables never enter it. One snapshot is
// lent to every save, as the runtime lends its live state, every value
// moved on since the last: allocs/op is the store's own, and 0 on the
// memory store and the WAL is the contract. BENCH_store.json records the
// results via scripts/bench.sh.
func BenchmarkSaveBytesPruned(b *testing.B) {
	for _, kind := range storeKinds {
		for _, mode := range []string{"full", "pruned"} {
			b.Run(kind+"/"+mode, func(b *testing.B) {
				st := openTestStore(b, kind, 8, wal.Options{})
				pruned := mode == "pruned"
				sample := storage.AppendSnapshot(nil, pruneBenchSnap(0, 1_000_000, pruned))
				s := pruneBenchSnap(0, 0, pruned)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Instance, s.Clock[0] = i, uint64(i+1)
					for name := range s.Vars {
						s.Vars[name]++
					}
					if err := st.Save(s); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(len(sample)), "payload_B/op")
				if inc, ok := st.(*storage.Incremental); ok {
					stats := inc.Stats()
					b.ReportMetric(float64(stats.FullBytes+stats.DeltaBytes)/float64(b.N), "delta_B/op")
				}
			})
		}
	}
}

// BenchmarkStoreSingleSave measures uncontended save latency — one saver,
// no batching opportunity.
func BenchmarkStoreSingleSave(b *testing.B) {
	b.Run("wal", func(b *testing.B) {
		st := openTestStore(b, "wal", 0, wal.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Save(benchSnap(0, i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALSelectLongLog measures what a rollback costs one job on a
// long-lived shared log: select the recovery line of a 4-process job that
// saved 64 checkpoints per process, scrub, and name what to discard
// (nothing — the store is already at the line, so every iteration does the
// same work), on a WAL that also took `foreign` saves of other jobs. Every
// save carries a 4-process job's row (N = 4, no messages), what recovery
// requires of a line member, so retention (DESIGN decision 33) keeps each
// process's newest two cuts: the index stays small however many saves the
// log took, and the 64k figure must stay within 2× of the 1k one; before
// the index was per process, selection walked every key the log ever held.
func BenchmarkWALSelectLongLog(b *testing.B) {
	const nproc, each = 4, 64
	for _, foreign := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("foreign=%dk", foreign>>10), func(b *testing.B) {
			ws := openTestStore(b, "wal", 0, wal.Options{})
			save := func(proc, instance int) {
				s := benchSnap(proc, instance)
				s.N, s.Instances = nproc, map[int]int{1: instance + 1}
				if err := ws.Save(s); err != nil {
					b.Error(err)
				}
			}
			// Foreign jobs fill the process numbers from nproc up, 256 savers
			// at a time so that group commit carries the set-up.
			var wg sync.WaitGroup
			for g := 0; g < 256; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < foreign; i += 256 {
						save(nproc+i/each, i%each)
					}
				}(g)
			}
			wg.Wait()
			for p := 0; p < nproc; p++ {
				for i := 0; i < each; i++ {
					save(p, i)
				}
			}
			job, err := storage.NewNamespace(ws, 0, nproc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb, err := recovery.Rollback(job, nproc, nil)
				if err != nil || rb.Line == nil {
					b.Fatalf("rollback: %+v, %v", rb, err)
				}
			}
		})
	}
}

// BenchmarkStoreLatestLongLog measures Latest on one process holding 1k or
// 16k instances of one index, on every store kind. The index keeps each
// (process, index) run in instance order and Latest reads its tail, so
// ns/op must not grow with the instance count; before, every store walked
// every key of the process.
func BenchmarkStoreLatestLongLog(b *testing.B) {
	for _, kind := range storeKinds {
		for _, instances := range []int{1 << 10, 16 << 10} {
			b.Run(fmt.Sprintf("%s/instances=%dk", kind, instances>>10), func(b *testing.B) {
				st := openTestStore(b, kind, 8, wal.Options{})
				// 16 savers, so that group commit carries the WAL's set-up.
				var wg sync.WaitGroup
				for g := 0; g < 16; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < instances; i += 16 {
							if err := st.Save(benchSnap(0, i)); err != nil {
								b.Error(err)
							}
						}
					}()
				}
				wg.Wait()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s, err := st.Latest(0, 1); err != nil || s.Instance != instances-1 {
						b.Fatalf("Latest = %s, %v", s.Key(), err)
					}
				}
			})
		}
	}
}

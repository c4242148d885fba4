package sim

// Microbenchmarks of the simulator's per-message hot path: the hardened
// transport's round trip (frames held by value in a window compacted in
// place, one timer per link re-armed with Reset) and the head-indexed
// delivery queues. scripts/bench.sh records them into BENCH_simcore.json.

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/storage"
)

// BenchmarkTransportRoundTrip measures one full hardened-transport cycle —
// send through the (lossless) injector, receiver resequencing, delivery
// into the queue, blocking receive, and the cumulative ack sliding the
// sender's window — with allocations reported. It allocates nothing:
// TestTransportRoundTripAllocs pins that.
func BenchmarkTransportRoundTrip(b *testing.B) {
	net := NewNetwork(2)
	net.harden(NetConfig{}, &metrics.Counters{}, nil)
	defer net.tr.reset()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: i, Value: i})
		if _, err := net.Recv(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueuePushPop measures the bare delivery queue cycle used by
// every message on the legacy reliable fabric (no transport): one push and
// one blocking pop.
func BenchmarkQueuePushPop(b *testing.B) {
	q := NewNetwork(2).channel(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(Message{Kind: MsgApp, Seq: i})
		if _, err := q.pop(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepQuiet measures one instruction of a process under the
// application-driven scheme — ns/op is per instruction — on a network where
// every other process has opened a channel to it. Nothing is queued on them,
// so the boundary between two instructions is one atomic load whatever n is:
// the two rows must read the same.
func BenchmarkStepQuiet(b *testing.B) {
	for _, n := range []int{4, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Three instructions per iteration: branch, assign, jump.
			code, err := Compile(mpl.NewBuilder("count").Vars("i").
				While(mpl.Lt(mpl.V("i"), mpl.Int(b.N/3)), func(l *mpl.Builder) {
					l.Assign("i", mpl.Add(mpl.V("i"), mpl.Int(1)))
				}).MustProgram())
			if err != nil {
				b.Fatal(err)
			}
			counters := &metrics.Counters{}
			r := &run{
				cfg:   Config{Nproc: n, Hooks: NoProtocol, Counters: counters, DisableTrace: true},
				code:  code,
				plan:  crashPlan{},
				net:   NewNetwork(n),
				store: newRetryStore(storage.NewMemory(), nil, counters, nil),
			}
			procs, err := r.start(0, nil, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			procs[0].maxSteps = b.N + 16 // b.N may outgrow stepBudget
			for from := 1; from < n; from++ {
				r.net.channel(from, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := procs[0].run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

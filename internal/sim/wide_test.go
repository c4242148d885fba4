package sim_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/verify"
)

func init() {
	sim.BaselineProtocols["sas"] = protocol.SaS
	sim.BaselineProtocols["cl"] = protocol.CL
	sim.BaselineProtocols["cic"] = protocol.CIC
}

// The paper's figures sweep to n = 1024; this is the runtime asked for n = 256
// and 1024 (ROADMAP item 12): the transformed Figure 2 Jacobi with one crash
// ends in the state verify.Machine computes, and a process costs no more than
// twice the objects there that it does in a 4-process run — a rank still
// talks to one neighbour, and nothing the run allocates is per pair of
// processes. Its bytes are bound the same way (ROADMAP item 21): a process's
// row, its snapshot body, the network and recovery cost its degree, not n, so
// a process of a 256-process run allocates at most 1.5 times the bytes one of
// a 4-process run does, and of a 1024-process run at most twice; and a
// process of the 1024-process run costs at most 2.8 KB (ROADMAP 27(b); 3.3
// while each Proc held an instance map, each checkpoint refilled a second
// variable map and each incarnation built new Procs). Without -race they read
// 4.2 KB at n = 4, 2.5 at 256 and 2.4 at 1024, 34.5, 19.9 and 19.5 objects.
// Every message is logged at 256 and 1024: both are past the process counts
// whose channels the analysis proves quiet (at n = 4 none is logged). The
// hardened transport is held to the same ratios at n = 256: it builds a link
// only for a pair that sends, so a process costs it its degree too (4.7 KB
// and 39.0 objects at n = 4, 2.9 and 23.9 at 256).
func TestWideRunAllocsPerProcess(t *testing.T) {
	rep, err := core.Transform(corpus.JacobiFig2(8), core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	code, err := sim.Compile(rep.Program)
	if err != nil {
		t.Fatal(err)
	}
	perProc := func(n int, net *sim.NetConfig) (objects, kb float64) {
		m, err := verify.RunSchedule(code, n, verify.DefaultInput, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Code: code, Nproc: n, Input: verify.DefaultInput, Timeout: 60 * time.Second, DisableTrace: true,
			Failures: []sim.Failure{{Proc: 1, AfterEvents: 20}}, Net: net,
		}
		// Nothing but the runs inside the counts: checks and logging allocate.
		const runs = 5 // AllocsPerRun warms up once
		var res *sim.Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		allocs := testing.AllocsPerRun(runs-1, func() {
			if err == nil {
				res, err = sim.Run(cfg)
			}
		})
		took := time.Since(start) / runs
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Restarts != 1 || !reflect.DeepEqual(res.FinalVars, m.FinalVars()) {
			t.Fatalf("n=%d: %d restarts; final state equals the machine's: %v", n, res.Restarts, reflect.DeepEqual(res.FinalVars, m.FinalVars()))
		}
		objects, kb = allocs/float64(n), float64(after.TotalAlloc-before.TotalAlloc)/runs/float64(n)/1024
		msgs, logged := 0, 0
		for _, history := range m.Trace().Events() {
			for _, e := range history {
				if e.Kind == trace.KindSend {
					msgs++
					if !rep.Program.Quiet.Has(n, e.Msg.From, e.Msg.To) {
						logged++
					}
				}
			}
		}
		t.Logf("n=%d hardened=%v: %.1f objects and %.1f KB per process, %v a run; %d of %d messages of a crash-free run logged",
			n, net != nil, objects, kb, took.Round(time.Microsecond), logged, msgs)
		return objects, kb
	}
	for _, row := range []struct {
		net  *sim.NetConfig
		wide []int
	}{{nil, []int{256, 1024}}, {&sim.NetConfig{}, []int{256}}} {
		narrow, narrowKB := perProc(4, row.net)
		for _, n := range row.wide {
			times := 1.5
			if n > 256 {
				times = 2
			}
			objects, kb := perProc(n, row.net)
			if objects > 2*narrow {
				t.Errorf("a process of a %d-process run (hardened %v) allocates %.1f objects, one of a 4-process run %.1f: want at most twice", n, row.net != nil, objects, narrow)
			}
			if kb > times*narrowKB && !raceEnabled {
				t.Errorf("a process of a %d-process run (hardened %v) allocates %.1f KB, one of a 4-process run %.1f: want at most %.1f times", n, row.net != nil, kb, narrowKB, times)
			}
			if n == 1024 && kb > 2.8 && !raceEnabled {
				t.Errorf("a process of a 1024-process run allocates %.1f KB, want at most 2.8", kb)
			}
		}
	}
}

// A Code is written by Compile and only read afterwards, so concurrent runs
// share one, its constants map included (the fleet engine's jobs do): 32 at
// once, one of them crashing in every other, end as a run of its own does.
// -race is the check.
func TestSharedCodeIsReadOnly(t *testing.T) {
	const n, runs = 4, 32
	prog := corpus.JacobiFig1(6)
	code, err := sim.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	own, err := sim.Run(sim.Config{Program: prog, Nproc: n, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*sim.Result, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := sim.Config{Code: code, Nproc: n, Timeout: 20 * time.Second, Jitter: int64(i + 1), DisableTrace: i%4 == 0}
			if i%2 == 1 {
				cfg.Failures = []sim.Failure{{Proc: i % n, AfterEvents: 10 + i}}
			}
			res, err := sim.Run(cfg)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
			} else if !reflect.DeepEqual(res.FinalVars, own.FinalVars) {
				t.Errorf("run %d ends with %v, a run that compiled for itself with %v", i, res.FinalVars, own.FinalVars)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// FinalVars are the halted processes' own maps: clobbering one run's
	// leaves every other run's as it was.
	for _, vars := range results[0].FinalVars {
		for name := range vars {
			vars[name] = -1
		}
	}
	for i, res := range results[1:] {
		if !reflect.DeepEqual(res.FinalVars, own.FinalVars) {
			t.Errorf("clobbering run 0's FinalVars changed run %d's to %v", i+1, res.FinalVars)
		}
	}

	// Program may repeat what Code already says, and must not contradict it.
	if _, err := sim.Run(sim.Config{Program: prog, Code: code, Nproc: n}); err != nil {
		t.Errorf("Code with its own Program: %v", err)
	}
	if _, err := sim.Run(sim.Config{Program: corpus.JacobiFig1(6), Code: code, Nproc: n}); err == nil {
		t.Error("Code with another Program: no error")
	}
}

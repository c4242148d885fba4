package zigzag

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// builder mirrors the test builder in internal/trace: a tiny deterministic
// event recorder with correct clocks.
type builder struct {
	t       *trace.Trace
	clocks  []vclock.VC
	pending map[trace.MessageID]vclock.VC
	seq     map[[2]int]int
	ords    []int
}

func newBuilder(n int) *builder {
	b := &builder{
		t:       trace.NewTrace(n),
		clocks:  make([]vclock.VC, n),
		pending: make(map[trace.MessageID]vclock.VC),
		seq:     make(map[[2]int]int),
		ords:    make([]int, n),
	}
	for i := range b.clocks {
		b.clocks[i] = vclock.New(n)
	}
	return b
}

func (b *builder) send(from, to int) trace.MessageID {
	key := [2]int{from, to}
	id := trace.MessageID{From: from, To: to, Seq: b.seq[key]}
	b.seq[key]++
	b.clocks[from].Tick(from)
	b.pending[id] = b.clocks[from].Clone()
	b.t.Append(trace.Event{Proc: from, Kind: trace.KindSend, Clock: b.clocks[from], Msg: id, Peer: to})
	return id
}

func (b *builder) recv(id trace.MessageID) {
	p := id.To
	b.clocks[p].Tick(p)
	b.clocks[p].Merge(b.pending[id])
	b.t.Append(trace.Event{Proc: p, Kind: trace.KindRecv, Clock: b.clocks[p], Msg: id, Peer: id.From})
}

func (b *builder) checkpoint(p int) {
	b.clocks[p].Tick(p)
	b.t.Append(trace.Event{
		Proc: p, Kind: trace.KindCheckpoint, Clock: b.clocks[p],
		Chkpt: trace.Checkpoint{CFGIndex: 1, Instance: b.ords[p]},
	})
	b.ords[p]++
}

// TestClassicZCycle builds the textbook Z-cycle: P1 sends m2 early; P0
// receives m2, checkpoints c01, sends m1; P1 receives m1 and only then
// checkpoints. c01 is useless: pairing it with P1's initial state orphans
// m2, pairing it with c11 orphans m1.
func TestClassicZCycle(t *testing.T) {
	b := newBuilder(2)
	m2 := b.send(1, 0)
	b.recv(m2)
	b.checkpoint(0) // c_{0,1}
	m1 := b.send(0, 1)
	b.recv(m1)
	b.checkpoint(1) // c_{1,1}

	a, err := FromTrace(b.t)
	if err != nil {
		t.Fatal(err)
	}
	if !a.OnZCycle(0, 1) {
		t.Error("c_{0,1} should be on a Z-cycle")
	}
	if a.OnZCycle(1, 1) {
		t.Error("c_{1,1} should not be on a Z-cycle")
	}
	useless := a.Useless()
	if len(useless) != 1 || useless[0].Proc != 0 {
		t.Errorf("Useless = %v", useless)
	}
	st := a.Stats()
	if st.Total != 2 || st.Useless != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestZPathWithoutCycle: a plain causal chain creates a z-path forward but
// no cycle.
func TestZPathWithoutCycle(t *testing.T) {
	b := newBuilder(2)
	b.checkpoint(0) // c_{0,1}
	m := b.send(0, 1)
	b.recv(m)
	b.checkpoint(1) // c_{1,1}

	a, err := FromTrace(b.t)
	if err != nil {
		t.Fatal(err)
	}
	if !a.ZPath(0, 1, 1, 1) {
		t.Error("z-path c01 -> c11 should exist (m sent after c01, received before c11)")
	}
	if a.ZPath(1, 1, 0, 1) {
		t.Error("no z-path c11 -> c01")
	}
	if len(a.Useless()) != 0 {
		t.Errorf("no checkpoint is useless here: %v", a.Useless())
	}
}

// TestZigzagThroughIntermediate exercises the "zig": the middle process
// sends its continuation EARLIER in real time than it receives the
// incoming message, but in the same interval.
func TestZigzagThroughIntermediate(t *testing.T) {
	b := newBuilder(3)
	// P1 sends m2 to P2 first (interval 1).
	m2 := b.send(1, 2)
	// P0 checkpoints, then sends m1 to P1 (received interval 1).
	b.checkpoint(0)
	m1 := b.send(0, 1)
	b.recv(m1)
	// P2 receives m2 before its own checkpoint... and before that, P2 sent
	// m3 to P0, received by P0 before its checkpoint? That would close a
	// cycle; keep it open here and check the z-path only.
	b.recv(m2)
	b.checkpoint(2)

	a, err := FromTrace(b.t)
	if err != nil {
		t.Fatal(err)
	}
	// Zigzag: m1 (sent after c01, received by P1 in interval 1), then m2
	// (sent by P1 in interval 1 ≥ 1 — earlier in real time!), received by
	// P2 in interval 1 ≤ 1 (before c21).
	if !a.ZPath(0, 1, 2, 1) {
		t.Error("zigzag path c01 -> c21 through P1 should exist")
	}
}

func TestOutOfRangeOrdinals(t *testing.T) {
	b := newBuilder(2)
	b.checkpoint(0)
	a, err := FromTrace(b.t)
	if err != nil {
		t.Fatal(err)
	}
	if a.ZPath(0, 0, 0, 1) || a.ZPath(0, 2, 0, 1) || a.ZPath(1, 1, 0, 1) {
		t.Error("out-of-range ordinals must be false")
	}
	if len(a.chkpts[0]) != 1 || len(a.chkpts[1]) != 0 {
		t.Error("Checkpoints accessor wrong")
	}
}

// TestTransformedProgramsHaveNoUselessCheckpoints is the headline
// property: after Phase III, every checkpoint belongs to its straight cut
// (a recovery line), so no checkpoint can lie on a Z-cycle.
func TestTransformedProgramsHaveNoUselessCheckpoints(t *testing.T) {
	progs := corpus.All()
	delete(progs, "irregular") // needs input wiring; covered elsewhere
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			rep, err := core.Transform(p, core.DefaultConfig)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sim.Config{Program: rep.Program, Nproc: 4, Timeout: 20 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			a, err := FromTrace(res.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if useless := a.Useless(); len(useless) != 0 {
				t.Errorf("useless checkpoints after transformation: %v", useless)
			}
		})
	}
}

// TestRandomTransformedNoZCycles extends the property to random programs.
func TestRandomTransformedNoZCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	for seed := int64(0); seed < 15; seed++ {
		rep, err := core.Transform(corpus.Random(seed), core.DefaultConfig)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := sim.Run(sim.Config{
			Program: rep.Program, Nproc: 4,
			Input:   func(rank, i int) int { return rank ^ i },
			Timeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := FromTrace(res.Trace)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if useless := a.Useless(); len(useless) != 0 {
			t.Fatalf("seed %d: useless checkpoints: %v\n%s",
				seed, useless, mpl.Format(rep.Program))
		}
	}
}

// TestZigzagProneProgramHasUselessCheckpoints runs the canonical Netzer-Xu
// pattern from the corpus: every even-rank checkpoint lies on a Z-cycle —
// deterministically — while the transformed program has none.
func TestZigzagProneProgramHasUselessCheckpoints(t *testing.T) {
	const n, iters = 4, 3
	prog := corpus.ZigzagProne(iters)
	res, err := sim.Run(sim.Config{Program: prog, Nproc: n, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a, err := FromTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	useless := a.Useless()
	// Every even-rank checkpoint is on a Z-cycle (m1 = this iteration's b,
	// zigzag back through the partner's a). Odd-rank checkpoints from the
	// second iteration on are too: pairing C_odd#k+1 with C_even#k+1
	// orphans a_{k+1}, pairing it with C_even#k orphans b_k. Only the odd
	// ranks' FIRST checkpoints (no earlier b to orphan) are useful:
	// 2 ranks × iters + 2 ranks × (iters−1).
	want := 2*iters + 2*(iters-1)
	if len(useless) != want {
		t.Fatalf("useless = %d, want %d: %v", len(useless), want, useless)
	}
	for _, c := range useless {
		if c.Proc%2 != 0 && c.Instance == 0 {
			t.Errorf("odd-rank first checkpoint flagged useless: %v", c)
		}
	}

	// After Phase III the same workload has zero useless checkpoints.
	rep, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.Run(sim.Config{Program: rep.Program, Nproc: n, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := FromTrace(res2.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if u := a2.Useless(); len(u) != 0 {
		t.Errorf("transformed program still has useless checkpoints: %v", u)
	}
}

// TestUncoordinatedTimerProducesUselessCheckpoints shows the contrast: a
// timer-driven uncoordinated run on a chatty workload yields checkpoints
// on Z-cycles.
func TestUncoordinatedTimerProducesUselessCheckpoints(t *testing.T) {
	// Use a ping-pong-heavy program and awkward timer interval. A useless
	// checkpoint is not guaranteed on every schedule, so retry across
	// intervals and accept the first hit.
	prog := corpus.JacobiFig2(6)
	found := false
	for _, interval := range []int{3, 4, 5, 7} {
		res, err := sim.Run(sim.Config{
			Program: prog,
			Nproc:   4,
			Hooks:   uncoordHooksFactory(interval),
			Timeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := FromTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Useless()) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Log("no useless checkpoint observed on these schedules (timer alignment); not a failure")
	}
}

// uncoordHooksFactory avoids importing internal/protocol (cycle-free but
// keeps this package's dependencies minimal): a local timer checkpointer.
func uncoordHooksFactory(interval int) sim.HooksFactory {
	return func(rank, nproc int) sim.Hooks {
		return &timerHooks{interval: interval}
	}
}

type timerHooks struct {
	sim.NoHooks
	interval int
	last     int
	count    int
}

func (h *timerHooks) AtChkptStmt(*sim.Proc, int) (bool, error) { return false, nil }

func (h *timerHooks) OnStep(p *sim.Proc) error {
	if p.Events()-h.last >= h.interval {
		h.last = p.Events()
		h.count++
		return p.TakeCheckpoint(h.count)
	}
	return nil
}

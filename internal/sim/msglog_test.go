package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/mpl"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
)

// stampHooks is the application-driven scheme with a piggyback naming each
// message and the incarnation that sent it: [from, to, seq, inc]. A record
// that reads back another stamp was scribbled on.
type stampHooks struct{ NoHooks }

func (stampHooks) BeforeSend(p *Proc, to int) []int {
	return []int{p.rank, to, p.row.At(to).Sent - 1, p.inc}
}

// sentBy records, per message, the incarnation of its latest send: what its
// record must still read however many records were written after it. A
// message regenerated by replay overwrites the rolled-back one, as it does
// in the log.
type sentBy struct {
	mu sync.Mutex
	at map[obs.MsgRef]int
}

func (sb *sentBy) OnEvent(e obs.Event) {
	if e.Kind != obs.KindSend {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.at[e.Msg] = e.Inc
}

// check requires every message of msgs to carry the stamp of its latest send.
func (sb *sentBy) check(t *testing.T, where string, msgs []Message) int {
	t.Helper()
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, m := range msgs {
		inc, ok := sb.at[obs.MsgRef{From: m.From, To: m.To, Seq: m.Seq}]
		if !ok {
			t.Fatalf("%s: message %d->%d #%d was never observed as sent", where, m.From, m.To, m.Seq)
		}
		if want := []int{m.From, m.To, m.Seq, inc}; !slices.Equal(m.Piggyback, want) {
			t.Errorf("%s: message %d->%d #%d carries stamp %v, its latest send was %v",
				where, m.From, m.To, m.Seq, m.Piggyback, want)
		}
	}
	return len(msgs)
}

// sendChkptRecv sends, checkpoints, then receives, every iteration: at a
// straight cut each process's sends of that iteration are in flight.
func sendChkptRecv(iters int) *mpl.Program {
	left, right := mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Add(mpl.Rank(), mpl.Int(1))
	return mpl.NewBuilder("send_chkpt_recv").
		Const("MAXITER", iters).
		Vars("x", "xl", "xr", "iter").
		Assign("x", mpl.Add(mpl.Rank(), mpl.Int(1))).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			b.Send(left, "x")
			b.Send(right, "x")
			b.Chkpt()
			b.Recv(left, "xl")
			b.Recv(right, "xr")
			b.Assign("x", mpl.Add(mpl.Add(mpl.V("x"), mpl.V("xl")), mpl.V("xr")))
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
}

// Message records are written once per send, into their senders' logs.
// Every channel here carries 32 messages, three chunks of log; one process
// crashes mid-run. Every message the log holds — and every in-flight one
// ResetForRecovery puts back on a channel — must still decode to what its
// latest send wrote: a later record, or a replayed one written over the cut,
// that scribbled on an earlier one shows here (and under -race).
func TestMessageRecordsAreStable(t *testing.T) {
	const n, iters = 4, 32
	code, err := Compile(sendChkptRecv(iters))
	if err != nil {
		t.Fatal(err)
	}
	seen := &sentBy{at: map[obs.MsgRef]int{}}
	counters := &metrics.Counters{}
	// Run's loop by hand (incarnations), so that the network can be inspected
	// between the rollback and the next incarnation, and after the last.
	r := &run{
		cfg: Config{
			Nproc: n, Hooks: func(int, int) Hooks { return stampHooks{} }, Timeout: 20 * time.Second,
			Counters: counters, Observer: seen, DisableTrace: true,
		},
		code:  code,
		plan:  crashPlan{{0, 2}: 40},
		net:   NewNetwork(n),
		store: newRetryStore(storage.NewMemory(), nil, counters, nil),
	}
	inflight, rollbacks := 0, 0
	incarnations(t, r, func(where string, afterReset bool) {
		if !afterReset {
			return
		}
		rollbacks++
		r.net.each(func(ch *channel) error {
			inflight += seen.check(t, fmt.Sprintf("channel %d->%d %s", ch.from, ch.to, where), ch.queued())
			return nil
		})
	})
	if rollbacks != 1 || inflight == 0 {
		t.Fatalf("%d rollbacks with %d messages in flight at the line: the test exercises no re-injected message", rollbacks, inflight)
	}
	logs := 0
	r.net.each(func(ch *channel) error {
		p, q := ch.from, ch.to
		seen.check(t, fmt.Sprintf("log %d->%d", p, q), ch.logged(t))
		if p-q != 1 && q-p != 1 {
			t.Errorf("channel %d->%d exists: nothing was ever sent or received on it", p, q)
			return nil
		}
		if logs++; ch.logLen != iters {
			t.Errorf("log %d->%d holds %d messages, want %d", p, q, ch.logLen, iters)
		}
		if chunks := len(ch.log); chunks < 3 {
			t.Errorf("log %d->%d spans %d chunks, want >= 3", p, q, chunks)
		}
		return nil
	})
	if want := 2 * (n - 1); logs != want {
		t.Errorf("%d channels were created, want the %d between neighbours", logs, want)
	}
}

// queued returns the messages waiting on the channel, oldest first.
func (ch *channel) queued() []Message {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return slices.Clone(ch.items[ch.head:])
}

// logged returns the messages the channel's log holds records of: every
// message it numbered, or none on a channel sent on with no record.
func (ch *channel) logged(t *testing.T) []Message {
	var msgs []Message
	seq := 0
	for c, chunk := range ch.log {
		if chunk.first != seq {
			t.Fatalf("log %d->%d: chunk %d begins at message %d, the one before ends at %d", ch.from, ch.to, c, chunk.first, seq)
		}
		for off := 0; off < len(chunk.b); seq++ {
			m := Message{Kind: MsgApp, From: ch.from, To: ch.to, Seq: seq}
			k := readRecord(chunk.b[off:], &m)
			if k == 0 {
				t.Fatalf("log %d->%d: record %d at offset %d of chunk %d does not read", ch.from, ch.to, seq, off, c)
			}
			off += k
			msgs = append(msgs, m)
		}
	}
	if seq != ch.logLen && !(ch.unlogged && seq == 0) {
		t.Fatalf("log %d->%d: %d records, logLen %d, unlogged %v", ch.from, ch.to, seq, ch.logLen, ch.unlogged)
	}
	return msgs
}

// lineOf is the recovery line whose member p carries the counts
// sendSeq[p] and recvSeq[p]: channel p→q's counts are sendSeq[p][q] and
// recvSeq[q][p].
func lineOf(sendSeq, recvSeq [][]int) []storage.Snapshot {
	line := make([]storage.Snapshot, len(sendSeq))
	for p := range line {
		line[p] = storage.Snapshot{Proc: p, N: len(line)}
		for q, sent := range sendSeq[p] {
			if sent != 0 || recvSeq[p][q] != 0 {
				line[p].Peers = append(line[p].Peers, storage.PeerSeq{Peer: q, Sent: sent, Recvd: recvSeq[p][q]})
			}
		}
	}
	return line
}

// resetTwoSlice is ResetForRecovery's channel pass over a []Message log, as
// it was before it filtered in place: two fresh slices per channel.
func resetTwoSlice(log []Message, sendSeq, recvSeq int) (keepLog, inflight []Message) {
	for _, m := range log {
		if m.Seq >= sendSeq {
			continue
		}
		keepLog = append(keepLog, m)
		if m.Seq >= recvSeq {
			inflight = append(inflight, m)
		}
	}
	return keepLog, inflight
}

func sameMessages(got, want []Message) bool {
	return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
}

// sendGen sends message seq of channel 0->1; gen tells a replay's message
// from the original.
func sendGen(net *Network, seq, gen int) Message {
	m := Message{Kind: MsgApp, From: 0, To: 1, Seq: seq, Value: 10*seq - gen, Piggyback: []int{seq, gen}, ArriveV: float64(seq)}
	net.Send(m)
	return m
}

func TestResetForRecoveryInPlace(t *testing.T) {
	const n = 2
	// Where the log's chunks begin: total messages fill the inline bytes and
	// two chunks, the last with three records.
	probe := NewNetwork(n)
	var firsts []int
	total := 0
	for ; len(firsts) < 3; total++ {
		sendGen(probe, total, 0)
		if ch := probe.peek(0, 1); len(ch.log) > len(firsts) {
			firsts = append(firsts, ch.log[len(ch.log)-1].first)
		}
	}
	total += 2
	f1, f2 := firsts[1], firsts[2]
	for _, tc := range []struct {
		name             string
		sendSeq, recvSeq int // of channel 0->1 at the line
		delivered        int // messages the receiver had consumed when it crashed
	}{
		{"nothing in flight", f1, f1, f1 + 2},
		{"some in flight", f1 + 3, 2, f2 + 1},
		{"everything in flight", total, 0, 3},
		{"everything regenerated", 0, 0, total},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(n)
			var original []Message
			for seq := 0; seq < total; seq++ {
				original = append(original, sendGen(net, seq, 0))
			}
			ch := net.peek(0, 1)
			for i := 0; i < tc.delivered; i++ {
				m, err := net.Recv(0, 1)
				if err != nil || !reflect.DeepEqual(m, original[i]) {
					t.Fatalf("delivery %d: %+v (%v), want %+v", i, m, err, original[i])
				}
			}
			chunks := slices.Clone(ch.log)
			queueBacking := ch.items[:cap(ch.items)]
			wantLog, wantQueue := resetTwoSlice(original, tc.sendSeq, tc.recvSeq)

			if err := net.ResetForRecovery(lineOf([][]int{{0, tc.sendSeq}, {0, 0}}, [][]int{{0, 0}, {tc.recvSeq, 0}})); err != nil {
				t.Fatal(err)
			}

			if got := ch.logged(t); !sameMessages(got, wantLog) {
				t.Errorf("log:\n got %+v\nwant %+v", got, wantLog)
			}
			if got := ch.queued(); !sameMessages(got, wantQueue) {
				t.Errorf("queue:\n got %+v\nwant %+v", got, wantQueue)
			}
			// The log was cut in place: the chunks it keeps are the ones it
			// had, records unmoved, the last ending at the cut.
			kept := len(ch.log)
			if kept > len(chunks) {
				t.Fatalf("the log keeps %d chunks, had %d", kept, len(chunks))
			}
			moved := func() {
				for c, chunk := range ch.log[:kept] {
					if chunk.first != chunks[c].first || unsafe.SliceData(chunk.b) != unsafe.SliceData(chunks[c].b) {
						t.Errorf("chunk %d of the log moved", c)
					}
				}
			}
			moved()
			// So was the queue, which had every message waiting on it.
			if len(wantQueue) > 0 && &ch.items[0] != &queueBacking[0] {
				t.Error("the queue moved to a new backing array")
			}
			for i, m := range queueBacking[len(wantQueue):] {
				if !reflect.DeepEqual(m, Message{}) {
					t.Errorf("slot %d of the queue's backing array, past its end, still holds %+v", len(wantQueue)+i, m)
				}
			}
			// Replay regenerates what was cut, with other contents, over the
			// cut bytes: the kept chunks stay where they are, and the replay
			// needs at most one chunk more than the log had.
			for seq := tc.sendSeq; seq < total; seq++ {
				wantLog = append(wantLog, sendGen(net, seq, 1))
			}
			if got := ch.logged(t); !sameMessages(got, wantLog) {
				t.Errorf("log after the replay:\n got %+v\nwant %+v", got, wantLog)
			}
			moved()
			if len(ch.log) > len(chunks)+1 {
				t.Errorf("the replay left %d chunks, the log had %d", len(ch.log), len(chunks))
			}
		})
	}
}

// sliceLogNet is the sender-based log as Network kept it before a channel
// owned its own — one []Message per pair — and the reference the byte log is
// held to. A message sent with no record is in the queue only.
type sliceLogNet struct {
	log, queue [][][]Message // [from][to]
}

func newSliceLogNet(n int) *sliceLogNet {
	ref := &sliceLogNet{log: make([][][]Message, n), queue: make([][][]Message, n)}
	for p := range ref.log {
		ref.log[p], ref.queue[p] = make([][]Message, n), make([][]Message, n)
	}
	return ref
}

func (ref *sliceLogNet) send(m Message, logged bool) {
	if logged {
		ref.log[m.From][m.To] = append(ref.log[m.From][m.To], m)
	}
	ref.queue[m.From][m.To] = append(ref.queue[m.From][m.To], m)
}

func (ref *sliceLogNet) reset(sendSeq, recvSeq [][]int) {
	for p := range ref.log {
		for q := range ref.log[p] {
			ref.log[p][q], ref.queue[p][q] = resetTwoSlice(ref.log[p][q], sendSeq[p][q], recvSeq[q][p])
		}
	}
}

// A seeded sequence of sends — on one channel in three with no record —
// receives and rollbacks to random lines, replay included (a rollback
// rewinds the sequence counters, so later sends regenerate what it cut):
// after every step each channel's log and queue equal the slice log's,
// record by record. A line never has a message in flight on a channel sent
// on with no record, as a straight cut of a transformed program never has
// one on a quiet channel.
func TestChannelLogMatchesSliceLog(t *testing.T) {
	const n, seeds, steps = 3, 40, 300
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, ref := NewNetwork(n), newSliceLogNet(n)
		unlogged := func(from, to int) bool { return (from+2*to+int(seed))%3 == 0 }
		sendSeq, recvSeq := make([][]int, n), make([][]int, n) // [p][q]: p's counters for peer q
		for p := range sendSeq {
			sendSeq[p], recvSeq[p] = make([]int, n), make([]int, n)
		}
		for step := 0; step < steps; step++ {
			p, q := rng.Intn(n), rng.Intn(n)
			if p == q {
				continue
			}
			switch op := rng.Intn(20); {
			case op < 11:
				m := Message{Kind: MsgApp, From: p, To: q, Seq: sendSeq[p][q], Value: rng.Int(), ArriveV: rng.Float64()}
				if rng.Intn(2) == 0 {
					m.Piggyback = []int{step, int(seed)}
				}
				sendSeq[p][q]++
				if unlogged(p, q) {
					net.SendUnlogged(m)
				} else {
					net.Send(m)
				}
				ref.send(m, !unlogged(p, q))
			case op < 19:
				if len(ref.queue[p][q]) == 0 {
					continue
				}
				want := ref.queue[p][q][0]
				ref.queue[p][q] = ref.queue[p][q][1:]
				recvSeq[q][p]++
				got, err := net.Recv(p, q)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: received %+v (%v) on %d->%d, want %+v", seed, step, got, err, p, q, want)
				}
			default:
				// A line: on every channel the receiver goes back at least as
				// far as the sender.
				for a := range sendSeq {
					for b := range sendSeq[a] {
						if unlogged(a, b) { // both go back to the same message
							sendSeq[a][b] = rng.Intn(min(recvSeq[b][a], sendSeq[a][b]) + 1)
							recvSeq[b][a] = sendSeq[a][b]
							continue
						}
						sendSeq[a][b] = rng.Intn(sendSeq[a][b] + 1)
						recvSeq[b][a] = rng.Intn(min(recvSeq[b][a], sendSeq[a][b]) + 1)
					}
				}
				if err := net.ResetForRecovery(lineOf(sendSeq, recvSeq)); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				ref.reset(sendSeq, recvSeq)
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					ch := net.peek(a, b)
					if ch == nil {
						if len(ref.log[a][b])+len(ref.queue[a][b]) != 0 {
							t.Fatalf("seed %d step %d: no channel %d->%d, the slice log holds %d messages", seed, step, a, b, len(ref.log[a][b]))
						}
						continue
					}
					if got := ch.logged(t); !sameMessages(got, ref.log[a][b]) {
						t.Fatalf("seed %d step %d: log %d->%d:\n got %+v\nwant %+v", seed, step, a, b, got, ref.log[a][b])
					}
					if got := ch.queued(); !sameMessages(got, ref.queue[a][b]) {
						t.Fatalf("seed %d step %d: queue %d->%d:\n got %+v\nwant %+v", seed, step, a, b, got, ref.queue[a][b])
					}
				}
			}
		}
	}
}

// A line the logs cannot rebuild is refused, with an error naming the
// channel and the message, and never rebuilt short: a sender that counts a
// message past the end of its log, a message in flight on a channel sent on
// with no record, a send on a channel that never carried one. A line with
// nothing in flight on that channel resets it.
func TestResetRefusesWhatTheLogsCannotRebuild(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sendSeq [][]int
		recvSeq [][]int
		want    string
	}{
		{"sender past the log", [][]int{{0, 4, 0}, {0, 0, 2}, {0, 0, 0}}, [][]int{{0, 0, 0}, {3, 0, 0}, {0, 2, 0}},
			"channel 0->1: the recovery line has sent message #3, the log ends at #2"},
		{"in flight with no record", [][]int{{0, 3, 0}, {0, 0, 2}, {0, 0, 0}}, [][]int{{0, 0, 0}, {3, 0, 0}, {0, 1, 0}},
			"channel 1->2: message #1 is in flight at the recovery line, and the channel's sends write no log record"},
		{"never used", [][]int{{0, 3, 0}, {0, 0, 2}, {1, 0, 0}}, [][]int{{0, 0, 0}, {3, 0, 0}, {0, 2, 0}},
			"channel 2->0: the recovery line has sent message #0, and the channel never carried one"},
		{"nothing in flight unlogged", [][]int{{0, 2, 0}, {0, 0, 1}, {0, 0, 0}}, [][]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(3)
			for seq := 0; seq < 3; seq++ {
				sendGen(net, seq, 0)
			}
			for seq := 0; seq < 2; seq++ {
				net.SendUnlogged(Message{Kind: MsgApp, From: 1, To: 2, Seq: seq})
			}
			err := net.ResetForRecovery(lineOf(tc.sendSeq, tc.recvSeq))
			if tc.want == "" {
				if q := net.peek(0, 1).queued(); err != nil || len(q) != 1 || q[0].Seq != 1 || net.peek(1, 2).logLen != 1 || len(net.peek(1, 2).queued()) != 0 {
					t.Fatalf("ResetForRecovery: %v; queue 0->1 %+v, channel 1->2 numbers %d", err, q, net.peek(1, 2).logLen)
				}
				net.SendUnlogged(Message{Kind: MsgApp, From: 1, To: 2, Seq: 1}) // replay numbers on from the line
				return
			}
			if err == nil || err.Error() != "sim: "+tc.want {
				t.Errorf("ResetForRecovery: %v, want %q", err, "sim: "+tc.want)
			}
		})
	}
}

// The same refusal ends a run: a recovery line whose sender claims one more
// message to its neighbour than it ever sent is a run error. Rebuilding it
// short would leave the message missing while the run went on.
func TestRunRefusesALineItsLogsCannotRebuild(t *testing.T) {
	left, right := mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Add(mpl.Rank(), mpl.Int(1))
	prog := mpl.NewBuilder("exchange_twice").
		Vars("x", "y").
		Assign("x", right).
		Send(right, "x").
		Recv(left, "y").
		Chkpt().
		Send(left, "y").
		Recv(right, "x").
		Assign("x", mpl.Add(mpl.V("x"), mpl.V("y"))).
		MustProgram()
	_, err := Run(Config{
		Program: prog, Nproc: 2, Timeout: 20 * time.Second,
		// Process 0 crashes once it received process 1's message, which
		// process 1 sent after its checkpoint: both hold C_1.
		Failures: []Failure{{Proc: 0, AfterEvents: 4}},
		Recover: func(st storage.Store, n int) (*recovery.Line, error) {
			line, err := recovery.StraightCut(st, n)
			if err != nil {
				return nil, err
			}
			row := &line.Snapshots[0].Peers
			i, ok := row.Search(1)
			if !ok {
				*row = slices.Insert(*row, i, storage.PeerSeq{Peer: 1})
			}
			(*row)[i].Sent++
			return line, nil
		},
	})
	if want := "sim: channel 0->1: the recovery line has sent message #1, the log ends at #0"; err == nil || err.Error() != want {
		t.Fatalf("Run: %v, want %q", err, want)
	}
}

// A recovery line whose snapshot was saved by an application of another
// width is a bad line, reported as an error: restore must neither read the
// peers it lacks as zeros (re-injecting delivered messages) nor panic.
// Rollback refuses the line before the store or a process is touched.
func TestRestoreRejectsSeqsOfWrongWidth(t *testing.T) {
	_, err := Run(Config{
		Program: sendChkptRecv(6), Nproc: 4, Timeout: 20 * time.Second,
		Failures: []Failure{{Proc: 2, AfterEvents: 20}},
		Recover: func(st storage.Store, n int) (*recovery.Line, error) {
			line, err := recovery.StraightCut(st, n)
			if err == nil {
				line.Snapshots[0].N = n - 1
			}
			return line, err
		},
	})
	if err == nil || !strings.Contains(err.Error(), "a row of 3 processes") {
		t.Fatalf("err = %v, want the restore's width error", err)
	}
}

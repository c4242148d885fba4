package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A record encodes to recordSize bytes and decodes bit-exact — the extreme
// values, a nil, empty or filled piggyback, ArriveV of either zero, NaN
// payloads and infinities — and a truncated one is rejected. Arbitrary bytes
// never make the decoder panic or claim more than it got. Beside a channel
// whose seed%4 messages went with no record, the record is what its channel
// rebuilds at a line that has its message in flight, and a line that has
// one of the others in flight too is refused, naming it.
func FuzzLogRecord(f *testing.F) {
	f.Add(int64(0), uint64(0), int16(-1), uint64(0), []byte{})
	f.Add(int64(42), uint64(1), int16(2), uint64(0), []byte{})
	f.Add(int64(-7), uint64(2), int16(-1), math.Float64bits(3.5), []byte{9})
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), int16(0), math.Float64bits(math.Copysign(0, -1)), []byte{0x80})
	f.Add(int64(math.MaxInt64), uint64(7), int16(5), math.Float64bits(math.Inf(1)), []byte{1, 2, 3})
	f.Add(int64(-1), uint64(1<<40), int16(63), uint64(0x7ff8_0000_0000_0001), []byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, value int64, seed uint64, pbLen int16, arrive uint64, raw []byte) {
		rng := rand.New(rand.NewPCG(seed, uint64(pbLen)))
		var pb []int
		if pbLen >= 0 {
			pb = make([]int, pbLen%64)
		}
		for i := range pb {
			pb[i] = [...]int{math.MinInt64, math.MaxInt64, -1, 0, int(rng.Int64() >> rng.IntN(64))}[rng.IntN(5)]
		}
		arriveV := math.Float64frombits(arrive)

		rec := appendRecord(nil, int(value), pb, arriveV)
		if size := recordSize(int(value), pb, arriveV); size != len(rec) {
			t.Fatalf("recordSize = %d, the record has %d bytes: the log would regrow a chunk", size, len(rec))
		}
		var m Message
		if k := readRecord(rec, &m); k != len(rec) {
			t.Fatalf("a %d-byte record reads as %d", len(rec), k)
		}
		if int64(m.Value) != value || !reflect.DeepEqual(m.Piggyback, pb) || math.Float64bits(m.ArriveV) != arrive {
			t.Fatalf("decoded value %d, piggyback %v, arrive %#x; sent %d, %v, %#x",
				m.Value, m.Piggyback, math.Float64bits(m.ArriveV), value, pb, arrive)
		}
		// Every cut near either end, and 64 between.
		for cut := 0; cut < len(rec); cut++ {
			if cut > 32 && cut < len(rec)-32 && cut%(len(rec)/64) != 0 {
				continue
			}
			if k := readRecord(rec[:cut], &m); k != 0 {
				t.Fatalf("the first %d of %d bytes read as a record of %d", cut, len(rec), k)
			}
		}
		if k := readRecord(raw, &m); k < 0 || k > len(raw) {
			t.Fatalf("%d arbitrary bytes read as a record of %d", len(raw), k)
		}

		skip := int(seed % 4)
		sent := Message{Kind: MsgApp, From: 0, To: 1, Value: int(value), Piggyback: pb, ArriveV: arriveV}
		for _, recv := range []int{skip, skip - 1} {
			if recv < 0 {
				continue
			}
			net := NewNetwork(3)
			for seq := 0; seq < skip; seq++ {
				net.SendUnlogged(Message{Kind: MsgApp, From: 2, To: 1, Seq: seq})
			}
			net.Send(sent)
			err := net.ResetForRecovery(lineOf([][]int{{0, 1, 0}, {0, 0, 0}, {0, skip, 0}}, [][]int{{0, 0, 0}, {0, 0, recv}, {0, 0, 0}}))
			if recv < skip {
				if want := fmt.Sprintf("channel 2->1: message #%d is in flight", recv); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%d messages with no record: a line with #%d in flight: %v, want an error saying %q", skip, recv, err, want)
				}
				continue
			}
			q := net.peek(0, 1).queued()
			if err != nil || len(q) != 1 || q[0].Seq != 0 || q[0].Value != sent.Value || !reflect.DeepEqual(q[0].Piggyback, pb) ||
				math.Float64bits(q[0].ArriveV) != arrive {
				t.Fatalf("beside %d messages with no record, %+v: the line rebuilds %+v (%v)", skip, sent, q, err)
			}
		}
	})
}

// Steady state on one channel: a send appends a record to room the log
// already has, and a receive — a pop — costs nothing. Over 1,000 send +
// receive pairs the log's growth may allocate one object per 32 messages.
func TestSendRecvSteadyStateAllocs(t *testing.T) {
	const pairs = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := NewNetwork(2)
	sent, received := 0, 0
	send := func() {
		net.Send(Message{Kind: MsgApp, From: 0, To: 1, Seq: sent, Value: sent})
		sent++
	}
	recv := func() {
		m, err := net.Recv(0, 1)
		if err != nil || m.Seq != received || m.Value != received {
			t.Fatalf("message #%d (value %d), want #%d: %v", m.Seq, m.Value, received, err)
		}
		received++
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	send() // the channel and its queue's backing array
	recv()
	got := mallocs(func() { send(); recv() })
	t.Logf("%d send + receive pairs: %d objects, the log spans %d chunks", pairs, got, len(net.peek(0, 1).log))
	if got > pairs/32 {
		t.Errorf("%d send + receive pairs allocate %d objects, want <= %d", pairs, got, pairs/32)
	}
	for i := 0; i < pairs; i++ {
		send()
	}
	if got := mallocs(recv); got != 0 {
		t.Errorf("%d receives allocate %d objects, want 0", pairs, got)
	}
}

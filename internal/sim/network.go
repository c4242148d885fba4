package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// MsgKind classifies runtime messages.
type MsgKind int

// Message kinds: application payloads, in-band protocol markers
// (Chandy-Lamport), and out-of-band control messages (SaS coordination).
const (
	MsgApp MsgKind = iota + 1
	MsgMarker
	MsgCtrl
)

// Message is one network message.
type Message struct {
	Kind      MsgKind
	From, To  int
	Seq       int // per (From,To) application sequence number
	Value     int
	Piggyback []int  // protocol payload carried on app messages
	Tag       string // marker/control tag
	// ArriveV is the virtual time at which the message becomes available
	// to the receiver (0 when virtual-time accounting is off).
	ArriveV float64
}

// ErrAborted is returned by blocking receives when the runtime aborts the
// incarnation (failure injection).
var ErrAborted = errors.New("sim: incarnation aborted")

// ctrlFrom is the sender index of a process's out-of-band control channel.
const ctrlFrom = -1

// channel is one directed link in one object: an unbounded FIFO with blocking
// receive and abort support, and — on in-band channels — the sender's log of
// the application messages it carried. The head index makes pop O(1) without
// reslicing the backing array from the front: a steady-state pop/push cycle
// reuses one backing array instead of abandoning a slice head per message.
//
// The log takes no lock. It has one writer, the sending process's goroutine
// (Network.send), and one other user, ResetForRecovery, which runs only after
// run.wait has received every goroutine's exit: -race checks that claim on
// every crash test.
type channel struct {
	from, to int                     // from is ctrlFrom on a control channel
	proto    *atomic.Int64           // &Network.inbox[to].proto: push, popHeadLocked and reset keep it exact
	nextIn   atomic.Pointer[channel] // the next of inbox[to]'s channels by sender

	mu     sync.Mutex
	cond   sync.Cond // L is &mu
	items  []Message
	head   int // items[:head] are consumed
	closed bool
	// unlogged: the log numbers the channel's messages and holds no record
	// of them (Network.send, unlogged). A log holds all records or none.
	unlogged bool
	polls    int // Network.Poll calls; tests read it
	// lk is the hardened transport's link that feeds an in-band channel
	// between two processes, set before the channel is published; nil on
	// the reliable fabric.
	lk *link

	logLen   int        // messages the log has numbered, 0 … logLen-1
	log      []logChunk // first ascending; starts as logHead
	logHead  [1]logChunk
	logFirst [logInline]byte
}

// push queues m and returns the queue's depth.
func (ch *channel) push(m Message) int {
	ch.mu.Lock()
	ch.items = append(ch.items, m)
	if m.Kind != MsgApp {
		ch.proto.Add(1)
	}
	depth := len(ch.items) - ch.head
	ch.mu.Unlock()
	ch.cond.Signal()
	return depth
}

// carry puts m on the wire into ch: across its link when hardened.
func (ch *channel) carry(m Message) {
	if ch.lk != nil {
		ch.lk.send(m)
	} else {
		ch.push(m)
	}
}

// popHeadLocked consumes the head message. Requires ch.mu and a non-empty
// queue. Once the queue drains, the backing array rewinds for reuse; the
// consumed slot is zeroed so popped payloads don't pin memory.
func (ch *channel) popHeadLocked() Message {
	m := ch.items[ch.head]
	ch.items[ch.head] = Message{}
	ch.head++
	if ch.head == len(ch.items) {
		ch.items = ch.items[:0]
		ch.head = 0
	}
	if m.Kind != MsgApp {
		ch.proto.Add(-1)
	}
	return m
}

// pop blocks until a message is available or the channel is aborted.
func (ch *channel) pop() (Message, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for len(ch.items) == ch.head && !ch.closed {
		ch.cond.Wait()
	}
	if ch.closed {
		return Message{}, ErrAborted
	}
	return ch.popHeadLocked(), nil
}

func (ch *channel) abort() {
	ch.mu.Lock()
	ch.closed = true
	ch.mu.Unlock()
	ch.cond.Broadcast()
}

// reset reopens the channel at a recovery line: the log keeps the messages
// sent before sendSeq — replay regenerates the rest — and the queue, which
// keeps its memory and zeroes what it drops, holds those the receiver had not
// consumed (seq >= recvSeq), rebuilt from their records. Finding recvSeq
// scans one chunk. The log is cut in place: the chunk holding the cut ends
// there, and the next record is written over the cut bytes, which nothing
// outside the log references. A line that needs a message the log holds no
// record of — one sent past the log's end, or one whose send wrote none —
// is an error naming it: the channel is never rebuilt short.
func (ch *channel) reset(sendSeq, recvSeq int) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for _, m := range ch.items[ch.head:] {
		if m.Kind != MsgApp {
			ch.proto.Add(-1)
		}
	}
	clear(ch.items)
	ch.items = ch.items[:0]
	ch.head = 0
	ch.closed = false
	switch {
	case sendSeq > ch.logLen:
		return fmt.Errorf("sim: channel %d->%d: the recovery line has sent message #%d, the log ends at #%d",
			ch.from, ch.to, sendSeq-1, ch.logLen-1)
	case ch.unlogged && recvSeq < sendSeq:
		return fmt.Errorf("sim: channel %d->%d: message #%d is in flight at the recovery line, and the channel's sends write no log record",
			ch.from, ch.to, recvSeq)
	case ch.unlogged:
		ch.logLen = sendSeq
		return nil
	}
	c, off := len(ch.log)-1, 0
	for ch.log[c].first > min(recvSeq, sendSeq) {
		c--
	}
	for seq := ch.log[c].first; seq < sendSeq; seq++ {
		for off == len(ch.log[c].b) {
			c, off = c+1, 0
		}
		m := Message{Kind: MsgApp, From: ch.from, To: ch.to, Seq: seq}
		k := readRecord(ch.log[c].b[off:], &m)
		if k == 0 {
			panic(fmt.Sprintf("sim: channel %d->%d: corrupt log record %d", ch.from, ch.to, seq))
		}
		if off += k; seq >= recvSeq {
			ch.items = append(ch.items, m)
		}
	}
	if sendSeq < ch.logLen {
		ch.log[c].b = ch.log[c].b[:off]
		clear(ch.log[c+1:])
		ch.log = ch.log[:c+1]
		ch.logLen = sendSeq
	}
	return nil
}

// Network provides a FIFO application/marker channel between every pair of
// processes and one control channel per process, each created when first
// used and holding the log its contents are rebuilt from after a rollback.
// It keeps nothing per pair of processes that never exchanged a message.
type Network struct {
	n     int
	inbox []inbox
	// mu serialises creating a channel; reads take no lock.
	mu      sync.Mutex
	aborted atomic.Bool

	// tr, when non-nil, is the hardened transport (Config.Net): every frame
	// crosses lossy links with sequencing, acks, and retransmission before
	// reaching the queues above. Nil pushes directly.
	tr *transport
}

// inbox is one receiver's: proto counts the markers and control messages
// queued for it (while zero, its poll would find nothing), and head starts
// its channels, by sender, which a walk reads without a lock. The inboxes'
// lists are the one index of the network's channels.
type inbox struct {
	proto atomic.Int64
	head  atomic.Pointer[channel]
}

// NewNetwork creates the fully connected network for n processes.
func NewNetwork(n int) *Network {
	return &Network{n: n, inbox: make([]inbox, n)}
}

// each calls fn on every channel, receiver by receiver and by sender within
// one, until fn returns an error, which it returns.
func (net *Network) each(fn func(*channel) error) error {
	for to := range net.inbox {
		for ch := net.inbox[to].head.Load(); ch != nil; ch = ch.nextIn.Load() {
			if err := fn(ch); err != nil {
				return err
			}
		}
	}
	return nil
}

// peek returns the channel from→to, nil if nothing has used it yet.
func (net *Network) peek(from, to int) *channel {
	for ch := net.inbox[to].head.Load(); ch != nil && ch.from <= from; ch = ch.nextIn.Load() {
		if ch.from == from {
			return ch
		}
	}
	return nil
}

// channel returns the channel from→to, creating it on first use, with its
// data link on a hardened network: linked in after its successor is, so a
// reader sees it whole or not at all. A channel created while Abort runs must
// not stay open: the creator publishes it in its receiver's list and only
// then reads the flag, Abort sets the flag and only then walks the lists, so
// either the walk reaches the channel or its creator closes it.
func (net *Network) channel(from, to int) *channel {
	if ch := net.peek(from, to); ch != nil {
		return ch
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	at := &net.inbox[to].head
	for ch := at.Load(); ch != nil && ch.from <= from; ch = at.Load() {
		if ch.from == from {
			return ch
		}
		at = &ch.nextIn
	}
	ch := &channel{from: from, to: to, proto: &net.inbox[to].proto}
	ch.cond.L = &ch.mu
	ch.log, ch.logHead[0].b = ch.logHead[:], ch.logFirst[:0]
	if net.tr != nil && from != ctrlFrom && from != to {
		ch.lk = net.tr.newLink(LinkData, from, to, ch)
	}
	ch.nextIn.Store(at.Load())
	at.Store(ch)
	if net.aborted.Load() {
		ch.abort()
	}
	return ch
}

// send delivers an application message on ch, the channel m.From→m.To
// (asynchronous, FIFO), and logs it for potential rollback re-injection. The
// log records the message before it touches the (possibly lossy) transport:
// recovery reconstructs in-flight messages from the log, never from the
// wire. Unlogged, the channel is one no recovery line can have a message in
// flight on: the log numbers the message and writes no record. Every
// message of a channel is sent one way or the other.
func (net *Network) send(ch *channel, m Message, unlogged bool) {
	if unlogged {
		ch.logNumber(m.Seq, true)
	} else {
		ch.logAppend(&m)
	}
	ch.carry(m)
}

// SendMarker delivers a message in band without logging it. Markers share
// the channel — when hardened, the data link; self-sends have none — with
// application messages, so that the FIFO ordering the Chandy-Lamport
// protocol depends on survives the transport.
func (net *Network) SendMarker(m Message) {
	net.channel(m.From, m.To).carry(m)
}

// SendCtrl delivers an out-of-band control message to m.To.
func (net *Network) SendCtrl(m Message) {
	if net.tr != nil && m.From != m.To && m.From >= 0 && m.From < net.n {
		net.tr.ctrlLink(m.From, m.To).send(m)
		return
	}
	net.channel(ctrlFrom, m.To).push(m)
}

// Recv blocks for the next message on channel (from, to); from is ctrlFrom
// for to's control channel.
func (net *Network) Recv(from, to int) (Message, error) {
	return net.channel(from, to).pop()
}

// quiet reports that no marker or control message is queued for process to.
func (net *Network) quiet(to int) bool { return net.inbox[to].proto.Load() == 0 }

// Poll removes the head of channel (from, to) — not creating it — if it has
// arrived by maxArrive virtual time (math.Inf(1) when accounting is off) and,
// in band, is a marker; from is ctrlFrom for to's control channel. Deferring
// messages from the virtual future keeps opportunistic polling causally sound:
// a real process cannot react to a notification before it arrives.
func (net *Network) Poll(from, to int, maxArrive float64) (Message, bool) {
	ch := net.peek(from, to)
	if ch == nil {
		return Message{}, false
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.polls++
	if ch.head == len(ch.items) || ch.items[ch.head].ArriveV > maxArrive ||
		(from == ctrlFrom && ch.closed) || (from != ctrlFrom && ch.items[ch.head].Kind != MsgMarker) {
		return Message{}, false
	}
	return ch.popHeadLocked(), true
}

// Abort wakes every blocked receiver with ErrAborted, and every receiver
// that blocks before the next ResetForRecovery.
func (net *Network) Abort() {
	net.aborted.Store(true)
	net.each(func(ch *channel) error {
		ch.abort()
		return nil
	})
}

// ResetForRecovery reopens every channel at a recovery line, its members
// indexed by process (nil: the initial state), with channel.reset: channel
// p→q then holds the logged application messages with sequence numbers in
// [line[q].Peers.At(p).Recvd, line[p].Peers.At(q).Sent) — exactly those in
// flight at the line. The members' peers are below n: recovery.Rollback
// refuses a line with one that is not. It must not run beside a process of
// the network: see channel. A line that counts a message the logs cannot
// rebuild is an error.
func (net *Network) ResetForRecovery(line []storage.Snapshot) error {
	// Invalidate the transport first: bumping link generations guarantees
	// that frames still on the (chaos-delayed) wire and pending retransmit
	// timers from the rolled-back incarnation are discarded on arrival and
	// cannot pollute the channel state rebuilt below, from the logs alone.
	if net.tr != nil {
		net.tr.reset()
	}
	net.aborted.Store(false)
	for from, s := range line {
		for _, e := range s.Peers {
			if e.Sent > 0 && net.peek(from, e.Peer) == nil {
				return fmt.Errorf("sim: channel %d->%d: the recovery line has sent message #%d, and the channel never carried one", from, e.Peer, e.Sent-1)
			}
		}
	}
	return net.each(func(ch *channel) error {
		sent, recvd := 0, 0 // from scratch, or a control channel, which logs nothing
		if ch.from != ctrlFrom && line != nil {
			sent, recvd = line[ch.from].Peers.At(ch.to).Sent, line[ch.to].Peers.At(ch.from).Recvd
		}
		return ch.reset(sent, recvd)
	})
}

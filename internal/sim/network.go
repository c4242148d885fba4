package sim

import (
	"errors"
	"sync"

	"repro/internal/vclock"
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
	Clock     vclock.VC
	Piggyback []int  // protocol payload carried on app messages
	Tag       string // marker/control tag
	// ArriveV is the virtual time at which the message becomes available
	// to the receiver (0 when virtual-time accounting is off).
	ArriveV float64
}

// ErrAborted is returned by blocking receives when the runtime aborts the
// incarnation (failure injection).
var ErrAborted = errors.New("sim: incarnation aborted")

// queue is an unbounded FIFO with blocking receive and abort support. The
// head index makes pop O(1) without reslicing the backing array from the
// front: a steady-state pop/push cycle reuses one backing array instead of
// abandoning a slice head to the garbage collector per message.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Message
	head   int // items[:head] are consumed
	closed bool
	// onDepth, when set, observes the queue depth after every push (the
	// hardened transport's backlog watermark tap). Called outside q.mu.
	onDepth func(depth int)
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(m Message) {
	q.mu.Lock()
	q.items = append(q.items, m)
	depth := len(q.items) - q.head
	q.mu.Unlock()
	q.cond.Signal()
	if q.onDepth != nil {
		q.onDepth(depth)
	}
}

// popHeadLocked consumes the head message. Requires q.mu and a non-empty
// queue. Once the queue drains, the backing array rewinds for reuse; the
// consumed slot is zeroed so popped payloads don't pin memory.
func (q *queue) popHeadLocked() Message {
	m := q.items[q.head]
	q.items[q.head] = Message{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return m
}

// pop blocks until a message is available or the queue is aborted.
func (q *queue) pop() (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == q.head && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return Message{}, ErrAborted
	}
	return q.popHeadLocked(), nil
}

// tryPopMarker removes and returns the head only when it is a marker that
// has virtually arrived (ArriveV <= maxArrive). Deferring messages from
// the virtual future keeps opportunistic polling causally sound: a real
// process cannot react to a notification before it arrives.
func (q *queue) tryPopMarker(maxArrive float64) (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.items) && q.items[q.head].Kind == MsgMarker && q.items[q.head].ArriveV <= maxArrive {
		return q.popHeadLocked(), true
	}
	return Message{}, false
}

// tryPop removes and returns the head message of any kind, subject to the
// same virtual-arrival horizon.
func (q *queue) tryPop(maxArrive float64) (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) || q.closed || q.items[q.head].ArriveV > maxArrive {
		return Message{}, false
	}
	return q.popHeadLocked(), true
}

func (q *queue) abort() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// reset clears contents and reopens the queue with the given messages.
func (q *queue) reset(items []Message) {
	q.mu.Lock()
	q.items = append(q.items[:0], items...)
	q.head = 0
	q.closed = false
	q.mu.Unlock()
}

// Network provides n² FIFO application/marker channels, one control queue
// per process, and a sender-based message log used to reconstruct channel
// contents after a rollback.
type Network struct {
	n     int
	chans [][]*queue // [from][to], app + marker traffic
	ctrl  []*queue   // [to], out-of-band control traffic

	// tr, when non-nil, is the hardened transport (Config.Net): every
	// frame crosses lossy links with sequencing, acks, and retransmission
	// before reaching the queues above. Nil keeps the legacy reliable
	// direct-push fabric, byte-for-byte identical to earlier revisions.
	tr *transport

	mu  sync.Mutex
	log [][][]Message // [from][to] log of app messages, Seq ascending
}

// NewNetwork creates the fully connected network for n processes.
func NewNetwork(n int) *Network {
	net := &Network{
		n:     n,
		chans: make([][]*queue, n),
		ctrl:  make([]*queue, n),
		log:   make([][][]Message, n),
	}
	for i := 0; i < n; i++ {
		net.chans[i] = make([]*queue, n)
		net.log[i] = make([][]Message, n)
		for j := 0; j < n; j++ {
			net.chans[i][j] = newQueue()
		}
		net.ctrl[i] = newQueue()
	}
	return net
}

// Send delivers an application message (asynchronous, FIFO) and logs it
// for potential rollback re-injection. The sender-based log records the
// message before it touches the (possibly lossy) transport: recovery
// reconstructs in-flight messages from the log, never from the wire.
func (net *Network) Send(m Message) {
	net.mu.Lock()
	net.log[m.From][m.To] = append(net.log[m.From][m.To], m)
	net.mu.Unlock()
	if lk := net.dataLink(m.From, m.To); lk != nil {
		lk.send(m)
		return
	}
	net.chans[m.From][m.To].push(m)
}

// SendMarker delivers an in-band marker on the (from, to) channel. Markers
// share the data link with application messages so the in-band FIFO
// ordering the Chandy-Lamport protocol depends on survives the transport.
func (net *Network) SendMarker(m Message) {
	if lk := net.dataLink(m.From, m.To); lk != nil {
		lk.send(m)
		return
	}
	net.chans[m.From][m.To].push(m)
}

// SendCtrl delivers an out-of-band control message to m.To.
func (net *Network) SendCtrl(m Message) {
	if net.tr != nil && m.From != m.To && m.From >= 0 && m.From < net.n {
		net.tr.ctrl[m.From][m.To].send(m)
		return
	}
	net.ctrl[m.To].push(m)
}

// dataLink returns the hardened in-band link for (from, to), or nil when
// the network is not hardened (or for degenerate self-sends).
func (net *Network) dataLink(from, to int) *link {
	if net.tr == nil || from == to {
		return nil
	}
	return net.tr.data[from][to]
}

// Recv blocks for the next in-band message on channel (from, to).
func (net *Network) Recv(from, to int) (Message, error) {
	return net.chans[from][to].pop()
}

// PollMarker removes a leading marker from channel (from, to) if it has
// arrived by maxArrive virtual time (use math.Inf(1) when accounting is
// off).
func (net *Network) PollMarker(from, to int, maxArrive float64) (Message, bool) {
	return net.chans[from][to].tryPopMarker(maxArrive)
}

// PollCtrl removes the next control message for process to, if it has
// arrived by maxArrive virtual time.
func (net *Network) PollCtrl(to int, maxArrive float64) (Message, bool) {
	return net.ctrl[to].tryPop(maxArrive)
}

// RecvCtrl blocks for the next control message for process to.
func (net *Network) RecvCtrl(to int) (Message, error) {
	return net.ctrl[to].pop()
}

// Abort wakes every blocked receiver with ErrAborted.
func (net *Network) Abort() {
	for i := range net.chans {
		for j := range net.chans[i] {
			net.chans[i][j].abort()
		}
	}
	for _, q := range net.ctrl {
		q.abort()
	}
}

// ResetForRecovery clears all queues and re-injects, for each channel
// (p→q), the logged application messages with sequence numbers in
// (recvSeq[q][p], sendSeq[p][q]] — exactly the messages in flight at the
// recovery line. Messages the sender will regenerate during replay
// (seq > sendSeq[p][q]) are dropped from the log as well.
func (net *Network) ResetForRecovery(sendSeq, recvSeq [][]int) {
	// Invalidate the transport first: bumping link generations guarantees
	// that frames still on the (chaos-delayed) wire and pending retransmit
	// timers from the rolled-back incarnation are discarded on arrival,
	// and cannot pollute the reconstructed channel state below. In-flight
	// messages are re-injected from the sender-based log directly into the
	// queues — recovery bypasses the lossy links entirely.
	if net.tr != nil {
		net.tr.reset()
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	for p := 0; p < net.n; p++ {
		for q := 0; q < net.n; q++ {
			// Sequence numbers ascend along a channel's log: what replay
			// regenerates is a suffix of it, and what is in flight a suffix
			// of the rest. The log is cut in place, the dropped tail zeroed
			// so that it pins no clocks; the queue copies what it is handed.
			log := net.log[p][q]
			keep := len(log)
			for keep > 0 && log[keep-1].Seq >= sendSeq[p][q] {
				keep--
			}
			clear(log[keep:])
			log = log[:keep]
			inflight := keep
			for inflight > 0 && log[inflight-1].Seq >= recvSeq[q][p] {
				inflight--
			}
			net.log[p][q] = log
			net.chans[p][q].reset(log[inflight:])
		}
		net.ctrl[p].reset(nil)
	}
}

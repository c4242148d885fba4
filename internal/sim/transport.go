package sim

// The hardened transport: reliable, exactly-once, per-channel-FIFO message
// delivery on top of lossy links. The in-process Network is a perfectly
// reliable fabric — the one assumption a production deployment of the
// paper's coordination-free scheme could never make — so when Config.Net is
// set, every frame (application payloads, in-band markers, out-of-band
// control traffic) instead crosses a fault injector that may drop,
// duplicate, delay, or reorder it, and this layer restores the guarantees
// the checkpoint protocol above requires:
//
//   - per-(from,to) transport sequence numbers with receiver-side
//     resequencing and duplicate suppression (exactly-once, in-order
//     delivery into the existing queues);
//   - positive cumulative acknowledgements with retransmission on timeout,
//     the timeout being srtt + 4·rttvar from a per-link netestim.Estimator
//     (RFC 6298 form) under capped exponential backoff with jitter, and
//     Karn's rule: acks of retransmitted frames contribute no RTT samples;
//   - failure detection from that retransmission state: a link whose
//     oldest unacked frame goes SuspectAfter without ack progress reports
//     its peer, so a peer silenced by an unhealed partition is *detected*
//     and converted into the runtime's ordinary crash→recovery path instead
//     of deadlocking the incarnation.
//
// It keeps state only for pairs that talk: a link exists once its pair has
// sent on it, so a process costs the transport its degree, not n.
//
// The transport lives strictly below the checkpoint protocol: what a
// checkpoint keeps (the per-peer row of application message counts, the
// instance counters and the environment), the sender-based message log, and
// recovery-line selection never see retransmissions or duplicates, so the
// layer cannot create cut-crossing messages. ResetForRecovery disarms each
// link's timer and bumps its generation; frames from a rolled-back
// incarnation are discarded on arrival.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/netestim"
	"repro/internal/obs"
)

// Custom metrics counter names recorded by the hardened transport; like the
// storage-hardening counters they are part of the metrics-stream contract.
const (
	// MetricNetDrops counts frames the fault injector dropped (including
	// drops caused by an active partition window).
	MetricNetDrops = "net_drops"
	// MetricNetDups counts frames the fault injector duplicated.
	MetricNetDups = "net_dups"
	// MetricNetReorders counts frames the injector held back so a
	// successor could overtake them on the wire.
	MetricNetReorders = "net_reorders"
	// MetricNetRetransmits counts frames re-sent after an ack timeout.
	MetricNetRetransmits = "net_retransmits"
	// MetricNetRTOExpired counts retransmission-timer expiries.
	MetricNetRTOExpired = "net_rto_expired"
	// MetricNetBacklogMax is the high-watermark of any delivery queue's
	// depth (a gauge recorded via Counters.Max).
	MetricNetBacklogMax = "net_backlog_max"
	// MetricHBSuspects counts incarnations a link aborted by reporting its
	// peer suspect after SuspectAfter without ack progress (each one goes
	// the ordinary crash→recovery path).
	MetricHBSuspects = "hb_suspects"
	// MetricPartitionHealed counts partition windows observed to heal
	// (first frame attempted on the link after the window closed).
	MetricPartitionHealed = "partition_healed"
)

// LinkClass identifies the traffic class of a transport frame. The fault
// injector keys its decision streams on it, so ack loss is independent of
// data loss.
type LinkClass int

// Frame classes carried by the transport.
const (
	LinkData LinkClass = iota + 1 // in-band application + marker frames
	LinkCtrl                      // out-of-band protocol control frames
	LinkAck                       // transport acknowledgements
)

// String names the class for events and diagnostics.
func (c LinkClass) String() string {
	switch c {
	case LinkData:
		return "data"
	case LinkCtrl:
		return "ctrl"
	case LinkAck:
		return "ack"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Verdict is a fault injector's decision for one transmission attempt of
// one frame. The zero value delivers the frame untouched.
type Verdict struct {
	// Drop loses the frame (the sender's retransmission machinery, not the
	// injector, decides what happens next).
	Drop bool
	// Duplicate delivers a second copy of the frame.
	Duplicate bool
	// Delay postpones delivery by the given wall-clock duration.
	Delay time.Duration
	// Reorder marks that Delay was drawn specifically to let a successor
	// overtake this frame (counted separately from plain delays).
	Reorder bool
	// Partitioned marks that Drop is due to an active partition window.
	Partitioned bool
	// Healed marks the first attempt on this link after a partition window
	// closed — the transport counts it as a heal observation.
	Healed bool
}

// LinkChaos decides the fate of every transport frame. Implementations
// must be reproducible from (seed, class, from, to, seq, attempt) — see
// chaos.NetChaos — and safe for concurrent use.
type LinkChaos interface {
	Verdict(class LinkClass, from, to, seq, attempt int) Verdict
}

// Transport timing. The RTO itself always comes from the per-link
// estimator; the floor and the cap only bound it.
const (
	// SuspectAfter is how long a link's oldest unacked frame may go without
	// ack progress before the link reports its peer suspect, which aborts
	// the incarnation into recovery.
	SuspectAfter = 200 * time.Millisecond

	rtoFloor         = 2 * time.Millisecond   // guards against variance collapse on long-stable links
	rtoCap           = 200 * time.Millisecond // bounds the backed-off retransmission timeout
	backlogWatermark = 1024                   // queue depth past which a link publishes its backlog event
	maxBackoffShift  = 6                      // retransmit backoff doublings before the cap alone rules
)

// NetConfig enables the hardened transport on a run (sim.Config.Net). A nil
// *NetConfig on the run config keeps the legacy reliable in-process fabric,
// byte-for-byte transparent to golden tests.
type NetConfig struct {
	// Chaos is the link-level fault injector; nil hardens the transport
	// over lossless links (acks and sequencing still run).
	Chaos LinkChaos
}

// transport is the per-network state of the hardened delivery layer. It
// keeps nothing per pair of processes: a data link lives on the channel it
// feeds, created with it, and a control link is created by its first send.
type transport struct {
	net      *Network
	chaos    LinkChaos
	counters *metrics.Counters
	obsv     obs.Observer

	mu        sync.Mutex
	ctrl      map[[2]int]*link                      // (from, to) → control link
	onSuspect func(peer int, silence time.Duration) // the running incarnation's, nil between them
	reports   sync.WaitGroup                        // onSuspect calls in progress
}

// frame is one in-flight transport-level message.
type frame struct {
	seq       int
	msg       Message
	firstSend time.Time
	attempts  int
}

// link is one directed, sequenced, acknowledged channel (from → to) of one
// class. Sender state (unacked window, retransmit timer, RTT estimator)
// and receiver state (resequencing buffer) live on the same struct because
// both ends are in-process.
type link struct {
	t     *transport
	class LinkClass
	from  int
	to    int
	dst   *channel // delivery queue: the in-band channel from→to, or to's control channel

	est netestim.Estimator // survives resets: RTT knowledge outlives incarnations

	mu  sync.Mutex
	gen int // incarnation epoch; stale frames no-op

	// Sender side.
	nextSeq  int
	unacked  []frame
	since    time.Time   // last ack progress, or the send that opened the window
	boShift  uint        // backoff doublings since the last ack progress (Karn)
	timer    *time.Timer // the link's one timer: made by its first arm, re-armed with Reset
	deadline time.Time   // when the armed timer is due; zero while disarmed

	// Receiver side.
	expect     int
	pending    map[int]Message // frames past expect; made by the first such frame
	ackSends   int             // monotone attempt counter for this link's acks
	backlogged bool            // dst crossed backlogWatermark: the one event is out
}

// harden installs the transport on a network. Must be called before any
// channel is created; links appear as pairs start talking.
func (net *Network) harden(cfg NetConfig, counters *metrics.Counters, obsv obs.Observer) {
	net.tr = &transport{net: net, chaos: cfg.Chaos, counters: counters, obsv: obsv}
}

func (t *transport) newLink(class LinkClass, from, to int, dst *channel) *link {
	lk := &link{t: t, class: class, from: from, to: to, dst: dst}
	lk.est.SetRTOFloor(rtoFloor)
	return lk
}

// ctrlLink returns the control link from→to, creating it on first use.
func (t *transport) ctrlLink(from, to int) *link {
	t.mu.Lock()
	defer t.mu.Unlock()
	lk := t.ctrl[[2]int{from, to}]
	if lk == nil {
		if t.ctrl == nil {
			t.ctrl = make(map[[2]int]*link)
		}
		lk = t.newLink(LinkCtrl, from, to, t.net.channel(ctrlFrom, to))
		t.ctrl[[2]int{from, to}] = lk
	}
	return lk
}

// watch installs the callback a link reports a silent peer to; nil removes
// it. Once watch returns, no report to the callback it replaced is running
// or can start: a late one must not abort the next incarnation. A no-op on
// an unhardened network.
func (net *Network) watch(onSuspect func(peer int, silence time.Duration)) {
	if t := net.tr; t != nil {
		t.mu.Lock()
		t.onSuspect = onSuspect
		t.mu.Unlock()
		t.reports.Wait()
	}
}

// verdict consults the fault injector; a nil injector delivers everything.
func (t *transport) verdict(class LinkClass, from, to, seq, attempt int) Verdict {
	if t.chaos == nil {
		return Verdict{}
	}
	v := t.chaos.Verdict(class, from, to, seq, attempt)
	if v.Healed {
		t.counters.Inc(MetricPartitionHealed, 1)
	}
	if v.Drop {
		t.counters.Inc(MetricNetDrops, 1)
	}
	if v.Duplicate {
		t.counters.Inc(MetricNetDups, 1)
	}
	if v.Reorder {
		t.counters.Inc(MetricNetReorders, 1)
	}
	return v
}

// jitter perturbs a backoff duration by ±25% so retransmit timers from many
// links spread out. Wall-clock only; never affects outcomes.
func (t *transport) jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// reset discards all in-flight transport state (unacked windows, pending
// resequencing buffers, timers) and bumps the generation so frames already
// on the wire are ignored on arrival. Called by ResetForRecovery — channel
// contents at the recovery line are reconstructed from the sender-based
// message log, not from the wire — and when the run returns, so that
// retransmit timers and delayed deliveries stop.
func (t *transport) reset() {
	for ch := t.net.created.Load(); ch != nil; ch = ch.next {
		if ch.lk != nil {
			ch.lk.reset()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, lk := range t.ctrl {
		lk.reset()
	}
}

func (lk *link) reset() {
	lk.mu.Lock()
	lk.gen++
	lk.nextSeq = 0
	clear(lk.unacked)
	lk.unacked = lk.unacked[:0]
	lk.boShift = 0
	lk.expect = 0
	clear(lk.pending)
	lk.ackSends = 0
	lk.disarmLocked()
	lk.mu.Unlock()
}

// send enqueues one message for reliable in-order delivery. A send that
// opens the window arms the link's timer; the link's first one makes it.
func (lk *link) send(m Message) {
	now := time.Now()
	lk.mu.Lock()
	seq := lk.nextSeq
	lk.nextSeq++
	lk.unacked = append(lk.unacked, frame{seq: seq, msg: m, firstSend: now, attempts: 1})
	gen := lk.gen
	if len(lk.unacked) == 1 {
		lk.since = now
		if lk.timer == nil {
			lk.timer = time.AfterFunc(SuspectAfter, lk.onTimeout)
		}
		lk.armLocked(now)
	}
	lk.mu.Unlock()
	lk.transmit(gen, seq, m, 0)
}

// transmit pushes one attempt of a frame through the fault injector. It
// takes the frame's fields by value: by the time a delayed delivery or
// retransmission runs, the frame may have left the window.
func (lk *link) transmit(gen, seq int, m Message, attempt int) {
	v := lk.t.verdict(lk.class, lk.from, lk.to, seq, attempt)
	if v.Drop {
		return
	}
	// The fast path (no delay, no dup) calls deliver directly: a closure
	// here would allocate once per message on lossless links.
	if v.Delay > 0 {
		time.AfterFunc(v.Delay, func() { lk.deliver(gen, seq, m) })
	} else {
		lk.deliver(gen, seq, m)
	}
	if v.Duplicate {
		lk.deliver(gen, seq, m)
	}
}

// deliver is the receiver side: duplicate suppression, resequencing, and
// in-order push into the destination queue, then a cumulative ack. The
// first push that leaves the queue deeper than backlogWatermark publishes
// the link's one backlog event: chaos-induced backlog made visible instead
// of silent memory growth.
func (lk *link) deliver(gen, seq int, m Message) {
	lk.mu.Lock()
	if gen != lk.gen {
		lk.mu.Unlock()
		return
	}
	if seq != lk.expect {
		// A duplicate of a delivered frame (a dup verdict, or a
		// retransmission racing its own ack) is suppressed but re-acked so
		// the sender stops retransmitting; one from the future waits.
		_, dup := lk.pending[seq]
		if seq > lk.expect && !dup {
			if lk.pending == nil {
				lk.pending = make(map[int]Message)
			}
			lk.pending[seq] = m
		}
		lk.mu.Unlock()
		if !dup {
			lk.sendAck(gen)
		}
		return
	}
	// Push the frame and the prefix it completes while holding lk.mu:
	// concurrent deliveries must not interleave their pushes, or
	// resequenced frames would leak out of order into the queue.
	depth := lk.dst.push(m)
	for lk.expect++; len(lk.pending) > 0; lk.expect++ {
		next, ok := lk.pending[lk.expect]
		if !ok {
			break
		}
		delete(lk.pending, lk.expect)
		depth = max(depth, lk.dst.push(next))
	}
	backlog := depth > backlogWatermark && !lk.backlogged
	lk.backlogged = lk.backlogged || backlog
	lk.mu.Unlock()
	lk.t.counters.Max(MetricNetBacklogMax, int64(depth))
	if backlog && lk.t.obsv != nil {
		lk.t.obsv.OnEvent(obs.Event{
			Kind: obs.KindBacklog, Proc: -1, Inc: -1,
			Label: fmt.Sprintf("%s %d->%d backlog %d exceeds watermark %d", lk.class, lk.from, lk.to, depth, backlogWatermark),
		})
	}
	lk.sendAck(gen)
}

// sendAck sends a cumulative acknowledgement back across the injector
// (acks travel the reverse wire direction and can be lost or delayed too).
func (lk *link) sendAck(gen int) {
	lk.mu.Lock()
	if gen != lk.gen {
		lk.mu.Unlock()
		return
	}
	cum := lk.expect - 1
	attempt := lk.ackSends
	lk.ackSends++
	lk.mu.Unlock()

	v := lk.t.verdict(LinkAck, lk.to, lk.from, cum, attempt)
	if v.Drop {
		return
	}
	if v.Delay > 0 {
		time.AfterFunc(v.Delay, func() { lk.ackArrive(gen, cum) })
	} else {
		lk.ackArrive(gen, cum)
	}
	if v.Duplicate {
		lk.ackArrive(gen, cum)
	}
}

// ackArrive is the sender side of an ack: slide the unacked window, feed
// the RTT estimator (Karn's rule: only never-retransmitted frames yield
// samples), reset backoff on progress, and re-arm or stop the timer.
func (lk *link) ackArrive(gen, cum int) {
	now := time.Now()
	lk.mu.Lock()
	if gen != lk.gen {
		lk.mu.Unlock()
		return
	}
	// Slide the window in place: compacting the backing array (instead of
	// reslicing its head away) keeps its capacity for the life of the link.
	acked := 0
	for ; acked < len(lk.unacked) && lk.unacked[acked].seq <= cum; acked++ {
		// Karn: a retransmitted exchange gives no sample.
		if f := &lk.unacked[acked]; f.attempts == 1 {
			lk.est.Observe(now.Sub(f.firstSend))
		}
	}
	if acked > 0 {
		n := copy(lk.unacked, lk.unacked[acked:])
		clear(lk.unacked[n:])
		lk.unacked = lk.unacked[:n]
		lk.since = now
		lk.boShift = 0
		if n == 0 {
			lk.disarmLocked()
		} else {
			lk.armLocked(now)
		}
	}
	lk.mu.Unlock()
}

// armLocked sets the link's timer for the earlier of the oldest unacked
// frame's jittered, backed-off RTO and the moment its silence reaches
// SuspectAfter: a silent peer is reported at SuspectAfter, not at the next
// backoff fire. The RTO is the estimator's RFC 6298 bound, doubled per
// backoff shift and capped. Requires lk.mu and a timer.
func (lk *link) armLocked(now time.Time) {
	rto, _ := lk.est.RTO() // never fails: the floor is set
	d := lk.t.jitter(min(rto<<lk.boShift, rtoCap))
	if suspect := lk.since.Add(SuspectAfter).Sub(now); suspect > 0 {
		d = min(d, suspect)
	}
	lk.deadline = now.Add(d)
	lk.timer.Reset(d)
}

// disarmLocked stops the link's timer. A fire already under way finds no
// deadline and does nothing. Requires lk.mu.
func (lk *link) disarmLocked() {
	if lk.timer != nil {
		lk.timer.Stop()
	}
	lk.deadline = time.Time{}
}

// onTimeout retransmits the oldest unacked frame with exponential backoff.
// If that frame has gone SuspectAfter without ack progress, the link first
// reports its peer suspect: a silent peer is found by the link waiting on
// it (DESIGN decision 13). A fire before the armed deadline is stale — the
// link was re-armed or disarmed while it waited for lk.mu — and does
// nothing.
func (lk *link) onTimeout() {
	now := time.Now()
	lk.mu.Lock()
	if lk.deadline.IsZero() || now.Before(lk.deadline) {
		lk.mu.Unlock()
		return
	}
	lk.t.counters.Inc(MetricNetRTOExpired, 1)
	if lk.boShift < maxBackoffShift {
		lk.boShift++
	}
	// Copy the head frame's fields under the lock: once released, an ack
	// may slide the window, so the retransmission must not touch it.
	f := &lk.unacked[0]
	seq, m, attempt := f.seq, f.msg, f.attempts
	f.attempts++
	gen := lk.gen
	silence := now.Sub(lk.since)
	lk.armLocked(now)
	lk.mu.Unlock()

	if silence >= SuspectAfter {
		lk.t.suspect(lk.to, silence)
	}
	lk.t.counters.Inc(MetricNetRetransmits, 1)
	if lk.t.obsv != nil {
		lk.t.obsv.OnEvent(obs.Event{
			Kind: obs.KindRetry, Proc: lk.from, Inc: -1, Tag: "retransmit",
			Label: fmt.Sprintf("%s %d->%d seq=%d attempt=%d", lk.class, lk.from, lk.to, seq, attempt),
		})
	}
	lk.transmit(gen, seq, m, attempt)
}

// suspect reports a silent peer to the running incarnation, if any.
func (t *transport) suspect(peer int, silence time.Duration) {
	t.mu.Lock()
	report := t.onSuspect
	if report != nil {
		t.reports.Add(1)
	}
	t.mu.Unlock()
	if report != nil {
		defer t.reports.Done()
		report(peer, silence)
	}
}

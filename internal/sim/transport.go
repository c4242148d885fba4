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
//   - heartbeat-based failure detection, so a peer silenced by an unhealed
//     partition is *detected* and converted into the runtime's ordinary
//     crash→recovery path instead of deadlocking the incarnation.
//
// The transport lives strictly below the checkpoint protocol: what a
// checkpoint keeps (the per-peer row of application message counts, the
// instance counters and the environment), the sender-based message log, and
// recovery-line selection never see retransmissions or duplicates, so the
// layer cannot create cut-crossing messages. ResetForRecovery bumps a
// per-link generation; frames and timers from a rolled-back incarnation
// are discarded on arrival.

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
	// MetricHBSuspects counts peers the heartbeat failure detector
	// declared suspect (each suspicion aborts the incarnation into the
	// ordinary crash→recovery path).
	MetricHBSuspects = "hb_suspects"
	// MetricPartitionHealed counts partition windows observed to heal
	// (first frame attempted on the link after the window closed).
	MetricPartitionHealed = "partition_healed"
)

// LinkClass identifies the traffic class of a transport frame. The fault
// injector keys its decision streams on it, so ack loss is independent of
// data loss and a heartbeat drop never correlates with a payload drop.
type LinkClass int

// Frame classes carried by the transport.
const (
	LinkData      LinkClass = iota + 1 // in-band application + marker frames
	LinkCtrl                           // out-of-band protocol control frames
	LinkAck                            // transport acknowledgements
	LinkHeartbeat                      // failure-detector heartbeats
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
	case LinkHeartbeat:
		return "heartbeat"
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

// Transport tuning defaults. Floors and caps are configurable bounds (the
// RTO itself always comes from the per-link estimator, never a constant).
const (
	defaultHeartbeatEvery   = 5 * time.Millisecond
	defaultSuspectAfter     = 40 * defaultHeartbeatEvery
	defaultRTOFloor         = 2 * time.Millisecond
	defaultRTOCap           = 200 * time.Millisecond
	defaultBacklogWatermark = 1024
	maxBackoffShift         = 6 // retransmit backoff doublings before the cap alone rules
)

// NetConfig enables the hardened transport on a run (sim.Config.Net). The
// zero value of each field selects a sensible default; a nil *NetConfig on
// the run config keeps the legacy reliable in-process fabric, byte-for-byte
// transparent to golden tests.
type NetConfig struct {
	// Chaos is the link-level fault injector; nil hardens the transport
	// over lossless links (acks, heartbeats, and sequencing still run).
	Chaos LinkChaos
	// HeartbeatEvery is the failure detector's probe interval.
	HeartbeatEvery time.Duration
	// SuspectAfter is how long a peer may stay silent — no heartbeat, no
	// data, no ack — before the detector declares it suspect and aborts
	// the incarnation into recovery.
	SuspectAfter time.Duration
	// RTOFloor bounds the retransmission timeout from below (guards
	// against variance collapse on long-stable links).
	RTOFloor time.Duration
	// RTOCap bounds the backed-off retransmission timeout from above.
	RTOCap time.Duration
	// BacklogWatermark is the queue depth beyond which a backlog event is
	// published (chaos-induced backlog made visible instead of silent
	// memory growth).
	BacklogWatermark int
	// DisableDetector turns heartbeats and suspicion off (unit tests that
	// want deterministic transport behaviour without liveness timers).
	DisableDetector bool
}

func (c NetConfig) withDefaults() NetConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = defaultHeartbeatEvery
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = defaultSuspectAfter
	}
	if c.RTOFloor <= 0 {
		c.RTOFloor = defaultRTOFloor
	}
	if c.RTOCap <= 0 {
		c.RTOCap = defaultRTOCap
	}
	if c.RTOCap < c.RTOFloor {
		c.RTOCap = c.RTOFloor
	}
	if c.BacklogWatermark <= 0 {
		c.BacklogWatermark = defaultBacklogWatermark
	}
	return c
}

// transport is the per-network state of the hardened delivery layer.
type transport struct {
	net      *Network
	cfg      NetConfig
	counters *metrics.Counters
	obsv     obs.Observer

	data [][]*link // [from][to] in-band links (app + markers)
	ctrl [][]*link // [from][to] out-of-band control links

	det *detector
}

// frame is one in-flight transport-level message.
type frame struct {
	seq       int
	msg       Message
	firstSend time.Time
	attempts  int
}

// framePool recycles frames between ack and next send. Every message the
// simulator moves allocates one frame on the hardened path, so under a
// sweep this is a per-message allocation; pooling cuts it to near zero.
// Frames are returned only after leaving the unacked window, and all
// transmission paths work on copied (gen, seq, msg, attempt) values — a
// recycled frame is never reachable from a timer or a delayed delivery.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// getFrame takes a zeroed frame from the pool.
func getFrame(seq int, m Message) *frame {
	f := framePool.Get().(*frame)
	f.seq = seq
	f.msg = m
	f.attempts = 0
	return f
}

// putFrame clears payload references and recycles the frame.
func putFrame(f *frame) {
	f.msg = Message{}
	framePool.Put(f)
}

// initialWindow is the preallocated capacity of each link's unacked
// window; steady-state windows under the default chaos profiles stay well
// below it, so the append path almost never grows the backing array.
const initialWindow = 32

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

	est *netestim.Estimator // survives resets: RTT knowledge outlives incarnations

	mu  sync.Mutex
	gen int // incarnation epoch; stale frames/timers no-op

	// Sender side.
	nextSeq int
	unacked []*frame
	boShift uint // backoff doublings since the last ack progress (Karn)
	timer   *time.Timer

	// Receiver side.
	expect   int
	pending  map[int]Message
	ackSends int // monotone attempt counter for this link's acks
}

// harden installs the transport on a network. Must be called before any
// process starts sending. It creates every channel: a link per pair needs
// its delivery queue, and each queue its watermark tap.
func (net *Network) harden(cfg NetConfig, counters *metrics.Counters, obsv obs.Observer) {
	cfg = cfg.withDefaults()
	t := &transport{
		net:      net,
		cfg:      cfg,
		counters: counters,
		obsv:     obsv,
	}
	t.data = make([][]*link, net.n)
	t.ctrl = make([][]*link, net.n)
	for i := 0; i < net.n; i++ {
		t.data[i] = make([]*link, net.n)
		t.ctrl[i] = make([]*link, net.n)
		net.channel(ctrlFrom, i).onDepth = t.depthWatcher(fmt.Sprintf("ctrl %d", i))
	}
	for i := 0; i < net.n; i++ {
		for j := 0; j < net.n; j++ {
			if i == j {
				continue
			}
			ch := net.channel(i, j)
			ch.onDepth = t.depthWatcher(fmt.Sprintf("chan %d->%d", i, j))
			t.data[i][j] = t.newLink(LinkData, i, j, ch)
			t.ctrl[i][j] = t.newLink(LinkCtrl, i, j, net.channel(ctrlFrom, j))
		}
	}
	t.det = newDetector(t)
	net.tr = t
}

func (t *transport) newLink(class LinkClass, from, to int, dst *channel) *link {
	est := &netestim.Estimator{}
	est.SetRTOFloor(t.cfg.RTOFloor)
	return &link{
		t:       t,
		class:   class,
		from:    from,
		to:      to,
		dst:     dst,
		est:     est,
		unacked: make([]*frame, 0, initialWindow),
		pending: make(map[int]Message, initialWindow),
	}
}

// depthWatcher returns the per-queue depth callback: a high-watermark gauge
// plus a once-per-run backlog event when the configured watermark is
// crossed.
func (t *transport) depthWatcher(label string) func(int) {
	var once sync.Once
	return func(depth int) {
		t.counters.Max(MetricNetBacklogMax, int64(depth))
		if depth > t.cfg.BacklogWatermark {
			once.Do(func() {
				if t.obsv != nil {
					t.obsv.OnEvent(obs.Event{
						Kind: obs.KindBacklog, Proc: -1, Inc: -1,
						Label: fmt.Sprintf("%s backlog %d exceeds watermark %d", label, depth, t.cfg.BacklogWatermark),
					})
				}
			})
		}
	}
}

// verdict consults the fault injector; a nil injector delivers everything.
func (t *transport) verdict(class LinkClass, from, to, seq, attempt int) Verdict {
	if t.cfg.Chaos == nil {
		return Verdict{}
	}
	v := t.cfg.Chaos.Verdict(class, from, to, seq, attempt)
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
	for _, rows := range [][][]*link{t.data, t.ctrl} {
		for _, row := range rows {
			for _, lk := range row {
				if lk != nil {
					lk.reset()
				}
			}
		}
	}
	t.det.reset()
}

func (lk *link) reset() {
	lk.mu.Lock()
	lk.gen++
	lk.nextSeq = 0
	for _, f := range lk.unacked {
		putFrame(f)
	}
	lk.unacked = lk.unacked[:0]
	lk.boShift = 0
	lk.expect = 0
	clear(lk.pending)
	lk.ackSends = 0
	if lk.timer != nil {
		lk.timer.Stop()
		lk.timer = nil
	}
	lk.mu.Unlock()
}

// send enqueues one message for reliable in-order delivery.
func (lk *link) send(m Message) {
	lk.mu.Lock()
	seq := lk.nextSeq
	lk.nextSeq++
	f := getFrame(seq, m)
	f.attempts = 1
	f.firstSend = time.Now()
	lk.unacked = append(lk.unacked, f)
	gen := lk.gen
	if lk.timer == nil {
		lk.armLocked(gen)
	}
	lk.mu.Unlock()
	lk.transmit(gen, seq, m, 0)
}

// transmit pushes one attempt of a frame through the fault injector. It
// takes the frame's fields by value, never the frame itself: by the time a
// delayed delivery or retransmission runs, the frame may have been acked
// and recycled.
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
// in-order push into the destination queue, then a cumulative ack.
func (lk *link) deliver(gen, seq int, m Message) {
	lk.mu.Lock()
	if gen != lk.gen {
		lk.mu.Unlock()
		return
	}
	lk.t.heard(lk.from, lk.to)
	if seq < lk.expect {
		// Duplicate of an already-delivered frame (a dup verdict, or a
		// retransmission racing its own ack): suppress, but re-ack so the
		// sender stops retransmitting.
		lk.mu.Unlock()
		lk.sendAck(gen)
		return
	}
	if _, dup := lk.pending[seq]; dup {
		lk.mu.Unlock()
		return
	}
	lk.pending[seq] = m
	// Flush the in-order prefix while holding lk.mu: concurrent deliveries
	// must not interleave their flushes, or resequenced frames would leak
	// out of order into the queue.
	for {
		next, ok := lk.pending[lk.expect]
		if !ok {
			break
		}
		delete(lk.pending, lk.expect)
		lk.expect++
		lk.dst.push(next)
	}
	lk.mu.Unlock()
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
	lk.t.heard(lk.to, lk.from)
	// Slide the window in place: compacting the preallocated backing array
	// (instead of reslicing its head away) keeps the capacity for the life
	// of the link, and the acked frames go back to the pool.
	acked := 0
	for acked < len(lk.unacked) && lk.unacked[acked].seq <= cum {
		f := lk.unacked[acked]
		acked++
		if f.attempts == 1 {
			lk.est.Observe(now.Sub(f.firstSend))
		} else {
			lk.est.ObserveAmbiguous() // Karn: retransmitted exchange, no sample
		}
		putFrame(f)
	}
	progress := acked > 0
	if progress {
		n := copy(lk.unacked, lk.unacked[acked:])
		for i := n; i < len(lk.unacked); i++ {
			lk.unacked[i] = nil
		}
		lk.unacked = lk.unacked[:n]
	}
	if progress {
		lk.boShift = 0
		if len(lk.unacked) == 0 {
			if lk.timer != nil {
				lk.timer.Stop()
				lk.timer = nil
			}
		} else {
			lk.armLocked(gen)
		}
	}
	lk.mu.Unlock()
}

// rtoLocked derives the current retransmission timeout: the estimator's
// RFC 6298 bound, doubled per backoff shift, capped by the configured
// ceiling. Requires lk.mu.
func (lk *link) rtoLocked() time.Duration {
	rto, err := lk.est.RTO()
	if err != nil {
		rto = lk.t.cfg.RTOFloor // unreachable: the floor is always set
	}
	rto <<= lk.boShift
	if rto > lk.t.cfg.RTOCap || rto <= 0 {
		rto = lk.t.cfg.RTOCap
	}
	return rto
}

// armLocked (re)arms the retransmit timer for the oldest unacked frame.
// Requires lk.mu.
func (lk *link) armLocked(gen int) {
	if lk.timer != nil {
		lk.timer.Stop()
	}
	d := lk.t.jitter(lk.rtoLocked())
	lk.timer = time.AfterFunc(d, func() { lk.onTimeout(gen) })
}

// onTimeout retransmits the oldest unacked frame with exponential backoff.
func (lk *link) onTimeout(gen int) {
	lk.mu.Lock()
	if gen != lk.gen || len(lk.unacked) == 0 {
		lk.mu.Unlock()
		return
	}
	lk.t.counters.Inc(MetricNetRTOExpired, 1)
	if lk.boShift < maxBackoffShift {
		lk.boShift++
	}
	// Copy the head frame's fields under the lock: once released, an ack
	// may recycle the frame, so the retransmission must not touch it.
	f := lk.unacked[0]
	seq, m, attempt := f.seq, f.msg, f.attempts
	f.attempts++
	lk.armLocked(gen)
	lk.mu.Unlock()

	lk.t.counters.Inc(MetricNetRetransmits, 1)
	if lk.t.obsv != nil {
		lk.t.obsv.OnEvent(obs.Event{
			Kind: obs.KindRetry, Proc: lk.from, Inc: -1, Tag: "retransmit",
			Label: fmt.Sprintf("%s %d->%d seq=%d attempt=%d", lk.class, lk.from, lk.to, seq, attempt),
		})
	}
	lk.transmit(gen, seq, m, attempt)
}

// heard records that process `to` received evidence that `from` is alive
// (any delivered frame counts, not just heartbeats).
func (t *transport) heard(from, to int) {
	if t.det != nil {
		t.det.heard(from, to)
	}
}

// detector is the heartbeat failure detector: a network-level prober that
// stands in for the per-node heartbeat daemons of a real deployment. Every
// interval it pushes one heartbeat frame per directed pair through the
// fault injector and checks each pair's silence against the suspicion
// threshold. Suspicion is per incarnation (reset clears it).
type detector struct {
	t *transport

	mu        sync.Mutex
	lastHeard [][]time.Time // [observer][peer]
	suspected []bool        // [peer], this incarnation
	hbSeq     [][]int       // [from][to] heartbeat frame counter
	stop      chan struct{} // non-nil while running
}

func newDetector(t *transport) *detector {
	n := t.net.n
	d := &detector{t: t}
	d.lastHeard = make([][]time.Time, n)
	d.hbSeq = make([][]int, n)
	for i := 0; i < n; i++ {
		d.lastHeard[i] = make([]time.Time, n)
		d.hbSeq[i] = make([]int, n)
	}
	d.suspected = make([]bool, n)
	return d
}

func (d *detector) heard(from, to int) {
	d.mu.Lock()
	d.lastHeard[to][from] = time.Now()
	d.mu.Unlock()
}

func (d *detector) reset() {
	d.mu.Lock()
	for i := range d.suspected {
		d.suspected[i] = false
	}
	d.mu.Unlock()
}

// start launches the probe/check loop for one incarnation. onSuspect is
// called at most once per peer per incarnation, from the detector
// goroutine. The returned stop function blocks until the loop exits.
func (d *detector) start(onSuspect func(peer int, silence time.Duration)) (stop func()) {
	d.mu.Lock()
	now := time.Now()
	n := d.t.net.n
	for i := 0; i < n; i++ {
		d.suspected[i] = false
		for j := 0; j < n; j++ {
			d.lastHeard[i][j] = now // grace period from incarnation start
		}
	}
	stopCh := make(chan struct{})
	d.stop = stopCh
	d.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(d.t.cfg.HeartbeatEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
				d.probe()
				d.check(onSuspect)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-done
		})
	}
}

// probe pushes one heartbeat per directed pair through the injector.
// Heartbeats are pure liveness evidence: they carry no payload, enter no
// queue, and are neither acked nor retransmitted.
func (d *detector) probe() {
	n := d.t.net.n
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			d.mu.Lock()
			seq := d.hbSeq[p][q]
			d.hbSeq[p][q]++
			d.mu.Unlock()
			v := d.t.verdict(LinkHeartbeat, p, q, seq, 0)
			if v.Drop {
				continue
			}
			if v.Delay > 0 {
				p, q := p, q
				time.AfterFunc(v.Delay, func() { d.heard(p, q) })
			} else {
				d.heard(p, q)
			}
		}
	}
}

// check declares suspect any peer some observer has not heard from within
// the suspicion threshold.
func (d *detector) check(onSuspect func(int, time.Duration)) {
	now := time.Now()
	n := d.t.net.n
	type hit struct {
		peer    int
		silence time.Duration
	}
	var hits []hit
	d.mu.Lock()
	for o := 0; o < n; o++ {
		for p := 0; p < n; p++ {
			if o == p || d.suspected[p] {
				continue
			}
			if silence := now.Sub(d.lastHeard[o][p]); silence > d.t.cfg.SuspectAfter {
				d.suspected[p] = true
				hits = append(hits, hit{p, silence})
			}
		}
	}
	d.mu.Unlock()
	for _, h := range hits {
		onSuspect(h.peer, h.silence)
	}
}

// startDetector starts the heartbeat failure detector for one incarnation
// (no-op when the network is not hardened or the detector is disabled).
// The returned function stops it and must be called before the next
// incarnation starts.
func (net *Network) startDetector(onSuspect func(peer int, silence time.Duration)) (stop func()) {
	if net.tr == nil || net.tr.cfg.DisableDetector {
		return func() {}
	}
	return net.tr.det.start(onSuspect)
}

package sim

// Virtual-time accounting. When Config.Time is set, every process carries
// a virtual clock (abstract seconds) advanced by the §4 cost parameters:
// computation cost, per-message setup w_m paid by the sender, propagation
// delay to the receiver, checkpoint overhead o, and recovery overhead R
// after a rollback. Control messages and markers pay the same costs as
// application messages, so coordination overhead (M in the paper's model)
// shows up as measured time — the runtime counterpart of the Figure 8/9
// analysis.
//
// Receive semantics: a message becomes available at
// senderVTime(after setup) + Delay; the receiver's clock advances to
// max(own, arrival). Barriers therefore synchronize clocks to the slowest
// participant plus the message costs, exactly as a real stop-the-world
// protocol would.

// TimeModel prices the runtime's events in abstract seconds.
type TimeModel struct {
	// Compute is the cost of one assignment or one unit of work(n).
	Compute float64
	// Setup is w_m: per-message setup time paid by the sender (applies to
	// application, control, and marker messages alike).
	Setup float64
	// Delay is the propagation time from sender to receiver.
	Delay float64
	// CheckpointOverhead is o: the sender-side cost of taking one local
	// checkpoint.
	CheckpointOverhead float64
	// Recovery is R: the restart cost added to every process's clock when
	// the application rolls back.
	Recovery float64
}

// PaperTimeModel mirrors the §4 constants (o = 1.78 s, R = 3.32 s) with a
// 1 ms message setup, zero propagation (w_b·bits is negligible for 8-bit
// control messages), and 1 ms per computation step.
var PaperTimeModel = TimeModel{
	Compute:            0.001,
	Setup:              0.001,
	Delay:              0,
	CheckpointOverhead: 1.78,
	Recovery:           3.32,
}

// advance adds d to the process clock.
func (p *Proc) advance(d float64) {
	if p.time != nil {
		p.vtime += d
	}
}

// syncTo raises the clock to at least t (message arrival).
func (p *Proc) syncTo(t float64) {
	if p.time != nil && t > p.vtime {
		p.vtime = t
	}
}

// chargeSend charges the sender's clock with the setup cost and returns the
// message's availability time at the receiver.
func (p *Proc) chargeSend() float64 {
	if p.time == nil {
		return 0
	}
	p.advance(p.time.Setup)
	return p.vtime + p.time.Delay
}

// Package netestim estimates a link's retransmission timeout from observed
// round-trip times; the hardened transport (internal/sim) keeps one per
// link. The paper's Phase I (§3.1) cites such an estimate — Karn &
// Partridge [12] and RTT-measurement studies [5] — for the message delay of
// its interval model; feeding it there is ROADMAP 16.
//
// The estimator is the classic Jacobson/Karels smoothed-RTT algorithm used
// by TCP, with Karn's rule (samples from retransmitted exchanges are
// discarded): srtt ← (1-α)·srtt + α·sample, rttvar ← (1-β)·rttvar +
// β·|sample-srtt|, with α=1/8 and β=1/4.
package netestim

import (
	"errors"
	"sync"
	"time"
)

// Smoothing gains, per RFC 6298.
const (
	alpha = 1.0 / 8.0
	beta  = 1.0 / 4.0
)

// Estimator tracks a smoothed round-trip time and its variance. The zero
// value is ready to use.
type Estimator struct {
	mu      sync.Mutex
	srtt    time.Duration
	rttvar  time.Duration
	samples int
	floor   time.Duration
}

// ErrNoSamples is returned by estimate accessors before any sample arrives.
var ErrNoSamples = errors.New("netestim: no samples observed yet")

// Observe feeds one RTT sample. Following Karn's rule, callers must not
// feed samples from ambiguous (retransmitted) exchanges. Non-positive
// samples are ignored: a zero RTT is always a measurement artifact.
func (e *Estimator) Observe(sample time.Duration) {
	if sample <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		dev := e.srtt - sample
		if dev < 0 {
			dev = -dev
		}
		e.rttvar = time.Duration((1-beta)*float64(e.rttvar) + beta*float64(dev))
		e.srtt = time.Duration((1-alpha)*float64(e.srtt) + alpha*float64(sample))
	}
	e.samples++
}

// RTO returns the retransmission timeout in RFC 6298 form:
// max(floor, srtt + 4·rttvar). Before any sample arrives it returns the
// configured floor (the conservative initial timeout the RFC prescribes);
// with no floor set it returns ErrNoSamples as before.
func (e *Estimator) RTO() (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		if e.floor > 0 {
			return e.floor, nil
		}
		return 0, ErrNoSamples
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.floor {
		rto = e.floor
	}
	return rto, nil
}

// SetRTOFloor sets the lower bound RTO never drops below, guarding against
// the variance collapsing to zero on a long-stable link (RFC 6298 §2.4 uses
// one second; simulated links want something far smaller). A zero floor
// restores the unbounded behaviour.
func (e *Estimator) SetRTOFloor(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d < 0 {
		d = 0
	}
	e.floor = d
}

// Package netestim estimates network message delay from observed round-trip
// times. The paper's Phase I (§3.1) uses such an estimate — citing Karn &
// Partridge [12] and RTT-measurement studies [5] — to account for
// message-passing cost when choosing the optimal checkpoint interval of a
// message-passing (rather than serial) program.
//
// The estimator is the classic Jacobson/Karels smoothed-RTT algorithm used
// by TCP, with Karn's rule (samples from retransmitted exchanges are
// discarded): srtt ← (1-α)·srtt + α·sample, rttvar ← (1-β)·rttvar +
// β·|sample-srtt|, with α=1/8 and β=1/4.
package netestim

import (
	"errors"
	"fmt"
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

// RTT returns the smoothed round-trip estimate.
func (e *Estimator) RTT() (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		return 0, ErrNoSamples
	}
	return e.srtt, nil
}

// OneWayDelay returns the estimated one-way message delay (RTT/2), the
// quantity Phase I's interval model consumes.
func (e *Estimator) OneWayDelay() (time.Duration, error) {
	rtt, err := e.RTT()
	if err != nil {
		return 0, err
	}
	return rtt / 2, nil
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

// LinearModel is the affine message-cost model the paper's §4 uses:
// cost(bits) = Setup + PerBit·bits, with Setup = w_m and PerBit = w_b.
type LinearModel struct {
	Setup  time.Duration // w_m: per-message setup time
	PerBit time.Duration // w_b: additional per-bit delay
}

// Cost returns the modeled delay of one message of the given size.
func (m LinearModel) Cost(bits int) time.Duration {
	return m.Setup + time.Duration(bits)*m.PerBit
}

// FitLinear fits a LinearModel from two (bits, delay) measurements by
// solving the 2×2 system exactly. Measurements at the same size cannot
// determine a slope.
func FitLinear(bits1 int, d1 time.Duration, bits2 int, d2 time.Duration) (LinearModel, error) {
	if bits1 == bits2 {
		return LinearModel{}, fmt.Errorf("netestim: need distinct sizes to fit, both %d bits", bits1)
	}
	perBit := float64(d2-d1) / float64(bits2-bits1)
	setup := float64(d1) - perBit*float64(bits1)
	if perBit < 0 || setup < 0 {
		return LinearModel{}, fmt.Errorf(
			"netestim: measurements imply negative cost (setup=%v perBit=%v)",
			time.Duration(setup), time.Duration(perBit))
	}
	return LinearModel{Setup: time.Duration(setup), PerBit: time.Duration(perBit)}, nil
}

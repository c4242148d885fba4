package netestim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNoSamples(t *testing.T) {
	var e Estimator
	if _, err := e.RTT(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("RTT err = %v, want ErrNoSamples", err)
	}
	if _, err := e.OneWayDelay(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("OneWayDelay err = %v, want ErrNoSamples", err)
	}
	if _, err := e.RTO(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("RTO err = %v, want ErrNoSamples", err)
	}
}

func TestFirstSampleInitializes(t *testing.T) {
	var e Estimator
	e.Observe(100 * time.Millisecond)
	rtt, err := e.RTT()
	if err != nil || rtt != 100*time.Millisecond {
		t.Fatalf("RTT = %v, %v; want 100ms", rtt, err)
	}
	ow, _ := e.OneWayDelay()
	if ow != 50*time.Millisecond {
		t.Fatalf("OneWayDelay = %v, want 50ms", ow)
	}
	rto, _ := e.RTO()
	if rto != 300*time.Millisecond { // srtt + 4*(srtt/2)
		t.Fatalf("RTO = %v, want 300ms", rto)
	}
}

func TestSmoothingConvergesToConstant(t *testing.T) {
	var e Estimator
	for i := 0; i < 200; i++ {
		e.Observe(80 * time.Millisecond)
	}
	rtt, _ := e.RTT()
	if rtt != 80*time.Millisecond {
		t.Fatalf("constant input should converge exactly, got %v", rtt)
	}
	rto, _ := e.RTO()
	if rto >= 90*time.Millisecond {
		t.Fatalf("variance should decay under constant input: RTO = %v", rto)
	}
}

func TestIgnoresNonPositiveSamples(t *testing.T) {
	var e Estimator
	e.Observe(0)
	e.Observe(-time.Second)
	if _, err := e.RTT(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("non-positive samples were accepted: RTT err = %v", err)
	}
	e.Observe(time.Millisecond)
	if rtt, err := e.RTT(); err != nil || rtt != time.Millisecond {
		t.Fatalf("RTT = %v, %v; want the one sample, 1ms", rtt, err)
	}
}

func TestQuickEstimateWithinSampleRange(t *testing.T) {
	// The smoothed RTT always stays within [min, max] of observed samples.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var e Estimator
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i := 0; i < 50; i++ {
			s := time.Duration(1+r.Intn(1000)) * time.Millisecond
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
			e.Observe(s)
		}
		rtt, err := e.RTT()
		return err == nil && rtt >= lo && rtt <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRTOTable pins the RTO accessor's RFC 6298 form across floor
// configurations and variance collapse after long stability.
func TestRTOTable(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name    string
		floor   time.Duration
		feed    func(e *Estimator)
		want    time.Duration
		wantErr bool
	}{
		{
			name:    "no samples, no floor: error",
			feed:    func(*Estimator) {},
			wantErr: true,
		},
		{
			name:  "no samples with floor: floor is the initial timeout",
			floor: 100 * ms,
			feed:  func(*Estimator) {},
			want:  100 * ms,
		},
		{
			name: "first sample: srtt + 4*(srtt/2)",
			feed: func(e *Estimator) { e.Observe(10 * ms) },
			want: 30 * ms,
		},
		{
			name:  "variance collapse after long stability hits the floor",
			floor: 5 * ms,
			feed: func(e *Estimator) {
				for i := 0; i < 500; i++ {
					e.Observe(1 * ms)
				}
			},
			// rttvar decays toward zero, so srtt + 4*rttvar -> 1 ms, and
			// the configured floor takes over.
			want: 5 * ms,
		},
		{
			name:  "floor below estimate is inert",
			floor: 1 * ms,
			feed:  func(e *Estimator) { e.Observe(10 * ms) },
			want:  30 * ms,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e Estimator
			e.SetRTOFloor(tc.floor)
			tc.feed(&e)
			rto, err := e.RTO()
			if tc.wantErr {
				if !errors.Is(err, ErrNoSamples) {
					t.Fatalf("RTO err = %v, want ErrNoSamples", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rto != tc.want {
				t.Fatalf("RTO = %v, want %v", rto, tc.want)
			}
		})
	}
}

func TestVarianceCollapseWithoutFloor(t *testing.T) {
	var e Estimator
	for i := 0; i < 500; i++ {
		e.Observe(8 * time.Millisecond)
	}
	rto, err := e.RTO()
	if err != nil {
		t.Fatal(err)
	}
	// With no floor the collapse is visible: RTO decays to (nearly) the
	// smoothed RTT itself — the failure mode SetRTOFloor exists to guard.
	if rto >= 9*time.Millisecond {
		t.Fatalf("RTO = %v, want < 9ms after variance collapse", rto)
	}
	if rto < 8*time.Millisecond {
		t.Fatalf("RTO = %v fell below srtt", rto)
	}
}

func TestLinearModelCost(t *testing.T) {
	m := LinearModel{Setup: time.Millisecond, PerBit: time.Microsecond}
	if got := m.Cost(8); got != time.Millisecond+8*time.Microsecond {
		t.Fatalf("Cost(8) = %v", got)
	}
	if got := m.Cost(0); got != time.Millisecond {
		t.Fatalf("Cost(0) = %v, want setup only", got)
	}
}

func TestFitLinear(t *testing.T) {
	want := LinearModel{Setup: 2 * time.Millisecond, PerBit: 3 * time.Microsecond}
	got, err := FitLinear(100, want.Cost(100), 1000, want.Cost(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got.Setup != want.Setup || got.PerBit != want.PerBit {
		t.Fatalf("FitLinear = %+v, want %+v", got, want)
	}
}

func TestFitLinearRejectsDegenerate(t *testing.T) {
	if _, err := FitLinear(100, time.Second, 100, 2*time.Second); err == nil {
		t.Error("same-size measurements accepted")
	}
	// Decreasing cost with size implies negative per-bit delay.
	if _, err := FitLinear(100, 2*time.Second, 1000, time.Second); err == nil {
		t.Error("negative slope accepted")
	}
}

func TestQuickFitLinearRoundTrip(t *testing.T) {
	f := func(setupMs, perBitNs uint16, b1, b2 uint8) bool {
		if b1 == b2 {
			return true
		}
		m := LinearModel{
			Setup:  time.Duration(setupMs) * time.Millisecond,
			PerBit: time.Duration(perBitNs) * time.Nanosecond,
		}
		got, err := FitLinear(int(b1), m.Cost(int(b1)), int(b2), m.Cost(int(b2)))
		if err != nil {
			return false
		}
		// Allow 1ns rounding slack from the float math.
		dS := got.Setup - m.Setup
		if dS < 0 {
			dS = -dS
		}
		dP := got.PerBit - m.PerBit
		if dP < 0 {
			dP = -dP
		}
		return dS <= time.Nanosecond && dP <= time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

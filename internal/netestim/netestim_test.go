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
	if _, err := e.RTO(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("RTO err = %v, want ErrNoSamples", err)
	}
}

func TestFirstSampleInitializes(t *testing.T) {
	var e Estimator
	e.Observe(100 * time.Millisecond)
	if e.srtt != 100*time.Millisecond {
		t.Fatalf("srtt = %v, want 100ms", e.srtt)
	}
	rto, err := e.RTO()
	if err != nil || rto != 300*time.Millisecond { // srtt + 4*(srtt/2)
		t.Fatalf("RTO = %v, %v; want 300ms", rto, err)
	}
}

func TestSmoothingConvergesToConstant(t *testing.T) {
	var e Estimator
	for i := 0; i < 200; i++ {
		e.Observe(80 * time.Millisecond)
	}
	if e.srtt != 80*time.Millisecond {
		t.Fatalf("constant input should converge exactly, got %v", e.srtt)
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
	if _, err := e.RTO(); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("non-positive samples were accepted: RTO err = %v", err)
	}
	e.Observe(time.Millisecond)
	if e.srtt != time.Millisecond {
		t.Fatalf("srtt = %v, want the one sample, 1ms", e.srtt)
	}
	if rto, err := e.RTO(); err != nil || rto != 3*time.Millisecond {
		t.Fatalf("RTO = %v, %v; want the one sample's, 3ms", rto, err)
	}
}

func TestQuickEstimateWithinSampleRange(t *testing.T) {
	// The smoothed RTT always stays within [min, max] of observed samples,
	// and the deviation below max(hi/2, hi-lo), which bounds the RTO.
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
		rto, err := e.RTO()
		return err == nil && e.srtt >= lo && e.srtt <= hi && rto >= lo && rto <= hi+4*max(hi/2, hi-lo)
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

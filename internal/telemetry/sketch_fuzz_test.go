package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/metrics"
)

// FuzzSketch feeds a default-bounds sketch the values the input spells and
// checks its snapshot from both sides: the CDF (Count is the sum of
// Counts, which ends at a nonzero bucket and never outgrows the bounds;
// Quantile is monotone and stays within [Min, Max]; the snapshot encodes
// as JSON) and the /metrics histogram addSketch builds from it (cumulative
// buckets that only rise and end at _count). Each value is one byte: below
// len(DefaultSketchBounds) it picks that bound exactly, otherwise the next
// eight bytes are a float64 (NaN and magnitudes past 1e300 skipped, so the
// sum stays finite).
func FuzzSketch(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(append(b, 0xff), math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})                                      // empty
	f.Add(append(bits(0, -3, 5e-324, 1e-7), 0))          // bucket 0 only
	f.Add(append(bits(1e300, 2.5, 0.04, 1e7), 96, 8, 9)) // the overflow bucket: full length
	f.Fuzz(func(t *testing.T, in []byte) {
		bounds := metrics.DefaultSketchBounds
		s := metrics.NewSketch()
		var n int64
		for len(in) > 0 {
			op := in[0]
			in = in[1:]
			v := 0.0
			if int(op) < len(bounds) {
				v = bounds[op]
			} else if len(in) >= 8 {
				v = math.Float64frombits(binary.LittleEndian.Uint64(in))
				in = in[8:]
				if math.IsNaN(v) || math.Abs(v) > 1e300 {
					continue
				}
			}
			s.Observe(v)
			n++
		}
		snap := s.Snapshot()

		var sum int64
		for _, c := range snap.Counts {
			sum += c
		}
		if snap.Count != n || sum != n {
			t.Fatalf("Count %d, Σ Counts %d; observed %d", snap.Count, sum, n)
		}
		if k := len(snap.Counts); k > len(bounds)+1 || k > 0 && snap.Counts[k-1] == 0 {
			t.Fatalf("Counts %v: longer than the buckets or ends in a zero", snap.Counts)
		}
		prev := math.Inf(-1)
		for i := 0; i <= 20; i++ {
			q := snap.Quantile(float64(i) / 20)
			if q < prev || q < snap.Min || q > snap.Max {
				t.Fatalf("Quantile(%g) = %g after %g; min %g, max %g", float64(i)/20, q, prev, snap.Min, snap.Max)
			}
			prev = q
		}
		if _, err := json.Marshal(snap); err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}

		pw := &promWriter{}
		addSketch(pw, "h", "fuzzed", snap)
		cum, count := -1.0, -1.0
		for _, smp := range pw.fams[0].samples {
			switch smp.suffix {
			case "_bucket":
				if smp.value < cum {
					t.Fatalf("bucket %s holds %g after %g", smp.labels, smp.value, cum)
				}
				cum = smp.value
			case "_count":
				count = smp.value
			}
		}
		if cum != count || count != float64(n) {
			t.Fatalf("last bucket %g, _count %g; observed %d", cum, count, n)
		}
	})
}

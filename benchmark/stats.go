package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted values by
// the nearest-rank rule, or 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count), or 0 for no values.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile is the highest reportable percentile for n samples: the
// highest of the usual tail percentiles that still has at least ten
// samples beyond it. Below 20 samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, permille := range []int{900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 10
		}
	}
	return best
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the driver computes a metric's spread. It needs two values or more.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 || len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs((q3 - q1) / med)
}

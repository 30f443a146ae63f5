package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail is chosen from, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// beyond is the number of samples strictly above the nearest-rank
// pct-percentile of n samples.
func beyond(n int, pct float64) int {
	return n - nearestRank(n, pct)
}

// nearestRank is the 1-based rank of the pct-percentile among n samples.
func nearestRank(n int, pct float64) int {
	// pct*n is exact for the ladder's percentiles; dividing first would
	// round 99.9% of 10000 up past 9990.
	return int(math.Ceil(pct * float64(n) / 100))
}

// tailRule returns the highest percentile on tailLadder with at least ten
// samples beyond it, or 0 when n is too small for any.
func tailRule(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank pct-percentile of xs (0 for no samples).
// xs is sorted in place.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := nearestRank(len(xs), pct)
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is percentile(xs, 50) without reordering xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// quartiles returns the first, second and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so spreads
// printed here match the ones a Python reader computes from the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms, us and secs convert durations to the float units metrics report.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"math"
	"testing"
)

func TestTailRulePicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		beyond int
	}{
		{n: 10000, want: 99.9, beyond: 10},
		{n: 9999, want: 99, beyond: 99},
		{n: 2016, want: 99, beyond: 20},
		{n: 1000, want: 99, beyond: 10},
		{n: 999, want: 90, beyond: 99},
		{n: 160, want: 90, beyond: 16},
		{n: 100, want: 90, beyond: 10},
		{n: 99, want: 50, beyond: 49},
		{n: 20, want: 50, beyond: 10},
		{n: 19, want: 0},
	} {
		got := tailRule(tc.n)
		if got != tc.want {
			t.Errorf("tailRule(%d) = p%v, want p%v", tc.n, got, tc.want)
			continue
		}
		if got > 0 && beyond(tc.n, got) != tc.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, got, beyond(tc.n, got), tc.beyond)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for pct, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 11: 2} {
		if got := percentile(append([]float64(nil), xs...), pct); got != want {
			t.Errorf("p%v = %v, want %v", pct, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster time", steady, faster, "better"},
		{"slower time", steady, slower, "worse"},
		{"same time", steady, steady, "same"},
		{"noisy base", noisy, steady, "unresolved"},
	} {
		if got := verdict(tc.base, tc.head, true, 0.1); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := verdict(steady, slower, false, 0.1); got != "better" {
		t.Errorf("higher throughput: verdict = %q, want better", got)
	}
}

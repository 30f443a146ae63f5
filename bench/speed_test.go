package main

import (
	"math"
	"testing"
	"time"
)

func TestSpeedFactorUsesTheSamplesAroundTheInterval(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l := speedLog{samples: []speedSample{
		{at(0), refSpeedLoop},
		{at(100), 2 * refSpeedLoop}, // the machine ran at half speed
		{at(200), 2 * refSpeedLoop},
		{at(300), refSpeedLoop},
	}}
	for _, tc := range []struct {
		name     string
		from, to int
		want     float64
	}{
		{"between the first two", 10, 90, 1 / 1.5},
		{"inside the slow stretch", 110, 190, 0.5},
		{"starting as a sample ends", 100, 190, 0.5},
		{"spanning every sample", 50, 250, 1 / 1.5},
		{"before the first sample", -50, -10, 1},
		{"after the last sample", 400, 500, 1},
	} {
		if got := l.factor(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: factor = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := l.scale(10*time.Millisecond, at(110), at(190)); got != 5*time.Millisecond {
		t.Errorf("10ms at half speed scales to %v, want 5ms", got)
	}
	var empty speedLog
	if got := empty.factor(at(0), at(1)); got != 1 {
		t.Errorf("factor without samples = %v, want 1", got)
	}
}

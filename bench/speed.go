package main

import (
	"sort"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts by tens
// of percent over seconds as other tenants come and go. Timings are
// therefore reported at reference speed: a fixed reference loop, which calls
// nothing in the code under test, is timed every speedEvery between the
// measured calls, and each measured interval is scaled by the loop's
// reference time over its time measured around that interval. Raw
// wall-clock medians are kept in each record's info.

const (
	speedIters = 400_000
	// refSpeedLoop is the reference loop's median time on the baseline box
	// (a 2-vCPU Linux VM, see README.md). It only sets the scale: values at
	// reference speed read like wall-clock times on that box when it is
	// quiet.
	refSpeedLoop = 620 * time.Microsecond
	speedEvery   = 50 * time.Millisecond
)

// speedTable is the loop's working set: 128 KiB, resident in L2 cache, so
// the loop never allocates and never waits on the heap.
var (
	speedTable [1 << 14]uint64
	speedSink  uint64
)

// speedLoop runs the reference loop once and returns how long it took.
func speedLoop() time.Duration {
	start := time.Now()
	x := speedSink | 1
	for i := 0; i < speedIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		speedTable[x>>50] += x
	}
	speedSink += speedTable[x>>50]
	return time.Since(start)
}

type speedSample struct {
	at  time.Time // when the loop finished
	dur time.Duration
}

// speedLog is a run's reference-loop timings, in time order.
type speedLog struct {
	samples []speedSample
}

// sample runs the loop and records it.
func (l *speedLog) sample() {
	d := speedLoop()
	l.samples = append(l.samples, speedSample{at: time.Now(), dur: d})
}

// due runs the loop if the last sample is older than speedEvery.
func (l *speedLog) due() {
	if n := len(l.samples); n == 0 || time.Since(l.samples[n-1].at) >= speedEvery {
		l.sample()
	}
}

// factor is the reference loop time over the mean loop time of the samples
// that bracket [from, to]: the last one finished at or before from, every one
// inside, and the first one after to. It is 1 without samples.
func (l *speedLog) factor(from, to time.Time) float64 {
	s := l.samples
	if len(s) == 0 {
		return 1
	}
	lo := sort.Search(len(s), func(i int) bool { return s[i].at.After(from) }) - 1
	hi := sort.Search(len(s), func(i int) bool { return s[i].at.After(to) })
	lo, hi = max(lo, 0), min(hi, len(s)-1)
	var sum time.Duration
	for _, x := range s[lo : hi+1] {
		sum += x.dur
	}
	return float64(refSpeedLoop) * float64(hi-lo+1) / float64(sum)
}

// scale returns d, measured over [from, to], at reference speed.
func (l *speedLog) scale(d time.Duration, from, to time.Time) time.Duration {
	return time.Duration(float64(d) * l.factor(from, to))
}

// medianFactor is the median of every sample's factor: how fast the machine
// ran over the run relative to the reference.
func (l *speedLog) medianFactor() float64 {
	fs := make([]float64, len(l.samples))
	for i, x := range l.samples {
		fs[i] = float64(refSpeedLoop) / float64(x.dur)
	}
	return median(fs)
}

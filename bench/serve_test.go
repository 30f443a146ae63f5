package main

import (
	"testing"
	"time"
)

// stallClock is a fake clock whose sleeps land exactly on time except
// before the request at stallAt, where the generator loses stall.
type stallClock struct {
	now     time.Time
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *stallClock) Now() time.Time { return c.now }

func (c *stallClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
	if c.sleeps == c.stallAt {
		c.now = c.now.Add(c.stall)
	}
	c.sleeps++
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	const interval = 5 * time.Millisecond
	clk := &stallClock{now: start, stallAt: 3, stall: 12 * time.Millisecond}
	service := 2 * time.Millisecond
	var dues []time.Time
	var latency []time.Duration
	late := runOpenLoop(clk, start, interval, 8, func(i int, due time.Time) {
		dues = append(dues, due)
		// A request fired late completes service after it was fired, and
		// its latency is charged from when it was due.
		latency = append(latency, clk.Now().Add(service).Sub(due))
	})
	if late != clk.stall {
		t.Errorf("generator lateness = %v, want %v", late, clk.stall)
	}
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v: due times must not drift after a stall", i, due, want)
		}
	}
	// Request 3 fires 12ms late; 4 and 5 are due before the generator
	// catches up (at 27ms) and inherit the backlog; 6 is on time again.
	want := []time.Duration{2, 2, 2, 14, 9, 4, 2, 2}
	for i, w := range want {
		if latency[i] != w*time.Millisecond {
			t.Errorf("request %d latency %v, want %v", i, latency[i], w*time.Millisecond)
		}
	}
}

package main

import (
	"testing"

	"telamalloc/internal/obs"
)

func span(name string, start, dur int64) obs.SpanRecord {
	return obs.SpanRecord{Trace: "t", Span: name, StartUS: start, DurUS: dur}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []obs.SpanRecord{
		span("request", 100, 1000),
		// The queue opens a microsecond before the request span, as the
		// daemon's does; it still folds into the request.
		span("queue", 99, 400),
		span("cache", 110, 50), // nested in the queue
		span("admit", 170, 0),
		span("settle", 500, 500),
		span("stage:greedy", 520, 100),
		span("stage:search", 600, 300),
		span("stage:spill", 850, 100), // overlaps stage:search by 50
	}
	self, parent := selfTimes(spans)
	wantParent := map[string]string{
		"request": "", "queue": "request", "cache": "queue", "admit": "queue",
		"settle": "request", "stage:greedy": "settle", "stage:search": "settle", "stage:spill": "settle",
	}
	for i, s := range spans {
		got := ""
		if parent[i] >= 0 {
			got = spans[parent[i]].Span
		}
		if got != wantParent[s.Span] {
			t.Errorf("parent of %s = %q, want %q", s.Span, got, wantParent[s.Span])
		}
	}
	wantSelf := map[string]int64{
		// 1000 minus the union of queue [100,499) clipped and settle [500,1000).
		"request": 1000 - 399 - 500,
		"queue":   400 - 50,
		"cache":   50,
		"admit":   0,
		// settle [500,1000) minus the union of its stages, [520,950).
		"settle":       500 - (950 - 520),
		"stage:greedy": 100,
		"stage:search": 300,
		"stage:spill":  100,
	}
	for i, s := range spans {
		if self[i] != wantSelf[s.Span] {
			t.Errorf("self(%s) = %d, want %d", s.Span, self[i], wantSelf[s.Span])
		}
	}

	f := foldSpans(spans)
	if f.requestUS != 1000 {
		t.Errorf("request total = %d, want 1000", f.requestUS)
	}
	// The overlapping stages count their shared 70us twice, and the queue's
	// microsecond before the request once: 1000 + 70 + 1.
	if f.selfUS != 1071 {
		t.Errorf("self total = %d, want 1071", f.selfUS)
	}
}

func TestSelfTimesIdenticalIntervalsDoNotNestInEachOther(t *testing.T) {
	spans := []obs.SpanRecord{span("request", 0, 10), span("a", 0, 10), span("b", 0, 10)}
	self, parent := selfTimes(spans)
	if parent[0] != -1 || parent[1] != 0 || parent[2] != 1 {
		t.Fatalf("parents = %v, want [-1 0 1]", parent)
	}
	if self[0] != 0 || self[1] != 0 || self[2] != 10 {
		t.Errorf("self = %v, want [0 0 10]", self)
	}
}

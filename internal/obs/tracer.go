package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer emits structured request-lifecycle spans as JSON Lines: one
// object per span, written atomically (one Write call per line) so
// concurrent requests interleave whole records, never bytes.
//
// The span vocabulary for the allocation service is fixed (DESIGN.md §11):
//
//	request              the root span, Submit entry to terminal outcome
//	admit                admission verdict (admitted, shed, draining)
//	queue                time spent queued before a worker dequeued
//	cache                solution-cache verdict (hit, miss, near-hit)
//	dedup                singleflight follower outcome (shared, cold)
//	stage:<name>         one pipeline stage run (greedy, best-fit, ...)
//	settle               the terminal outcome with its attributes
//
// A nil *Tracer is a valid no-op tracer: every method is nil-safe, so call
// sites carry no enabled/disabled branches. Span open/close counts are
// tracked so harnesses can assert that every started span was ended even
// under concurrent load and caller cancellation (Balance).
type Tracer struct {
	mu sync.Mutex
	w  io.Writer

	opened  atomic.Int64
	closed  atomic.Int64
	dropped atomic.Int64 // spans lost to a write or marshal error
}

// NewTracer wraps w. The tracer owns serialisation, not the writer's
// lifetime: callers close files themselves after the last span.
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w}
}

// SpanRecord is the JSONL schema of one emitted span. Times are Unix
// microseconds; durations microseconds. Attrs carries span-specific
// attributes (steps, backtracks, outcome, breaker state, cache verdict).
type SpanRecord struct {
	Trace   string         `json:"trace"`
	Span    string         `json:"span"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Span is one in-progress span created by Start. Nil spans (from a nil
// tracer) are valid and inert.
type Span struct {
	t     *Tracer
	rec   SpanRecord
	start time.Time

	mu    sync.Mutex
	ended bool
}

// Start opens a span; every Start must be paired with exactly one End.
// Returns nil (inert) on a nil tracer.
func (t *Tracer) Start(traceID, name string) *Span {
	if t == nil {
		return nil
	}
	t.opened.Add(1)
	now := time.Now()
	return &Span{
		t:     t,
		start: now,
		rec:   SpanRecord{Trace: traceID, Span: name, StartUS: now.UnixMicro()},
	}
}

// Set attaches one attribute to the span. Later values win. Safe to call
// concurrently with other Sets; must not race with End.
func (sp *Span) Set(key string, value any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.ended {
		return
	}
	if sp.rec.Attrs == nil {
		sp.rec.Attrs = make(map[string]any, 4)
	}
	sp.rec.Attrs[key] = value
}

// End closes the span and emits its record. Idempotent: only the first End
// emits and counts.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	sp.rec.DurUS = time.Since(sp.start).Microseconds()
	rec := sp.rec
	sp.mu.Unlock()
	sp.t.closed.Add(1)
	sp.t.write(rec)
}

// Emit writes a retroactive span — one whose start and duration were
// measured by the caller (e.g. a pipeline stage reconstructed from its
// report). A retroactive span opens and closes in the same call, so it can
// never unbalance the tracer. Nil-safe.
func (t *Tracer) Emit(traceID, name string, start time.Time, dur time.Duration, attrs map[string]any) {
	if t == nil {
		return
	}
	t.opened.Add(1)
	t.closed.Add(1)
	t.write(SpanRecord{
		Trace:   traceID,
		Span:    name,
		StartUS: start.UnixMicro(),
		DurUS:   dur.Microseconds(),
		Attrs:   attrs,
	})
}

func (t *Tracer) write(rec SpanRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		// Attrs should always be marshal-safe; an exotic value loses its
		// span, not the process.
		t.dropped.Add(1)
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	_, werr := t.w.Write(line)
	t.mu.Unlock()
	if werr != nil {
		t.dropped.Add(1)
	}
}

// Balance reports how many spans were opened and closed. After a drained
// server the two must be equal — the invariant the -race span test and the
// obs soak assert.
func (t *Tracer) Balance() (opened, closed int64) {
	if t == nil {
		return 0, 0
	}
	return t.opened.Load(), t.closed.Load()
}

// Dropped reports spans lost to marshal or write errors.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

package server

import (
	"sync"
	"sync/atomic"
	"time"

	"telamalloc/internal/faultinject"
	"telamalloc/internal/stats"
)

// BrownoutConfig tunes the brownout controller — the control loop that
// trades answer quality for latency under sustained pressure instead of
// letting queue waits grow without bound (DESIGN.md §14). The zero value
// disables it.
type BrownoutConfig struct {
	// Target is the queue-wait p90 the controller defends. 0 disables the
	// controller entirely.
	Target time.Duration
	// Interval is the evaluation cadence (default 100ms).
	Interval time.Duration
	// StepUpAfter is how many consecutive hot evaluations (p90 above
	// Target) it takes to degrade one ladder level (default 3). The
	// consecutive requirement is half the hysteresis: one bad tick never
	// degrades service.
	StepUpAfter int
	// StepDownAfter is how many consecutive cool evaluations (p90 below
	// LowWater × Target, or an idle queue) it takes to recover one level
	// (default 6 — recovery is deliberately slower than degradation, so
	// the controller doesn't oscillate on the edge of saturation).
	StepDownAfter int
	// LowWater is the fraction of Target below which an evaluation counts
	// as cool (default 0.5). Between LowWater×Target and Target is the
	// deadband: the level holds and both streak counters reset.
	LowWater float64
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.StepUpAfter <= 0 {
		c.StepUpAfter = 3
	}
	if c.StepDownAfter <= 0 {
		c.StepDownAfter = 6
	}
	if c.LowWater <= 0 || c.LowWater >= 1 {
		c.LowWater = 0.5
	}
	return c
}

// enabled reports whether the controller is configured on.
func (c BrownoutConfig) enabled() bool { return c.Target > 0 }

// The brownout ladder. Each level keeps the degradations of the levels
// below it. Level 1 shrinks the per-request step pot (halved per level);
// level 2 also drops the search stage for batch/background requests — the
// expensive stage goes first for the traffic that can best tolerate a
// degraded packing, while interactive requests keep the full ladder at
// every level.
const (
	brownoutOff        = 0
	brownoutShrinkPots = 1
	brownoutNoSearch   = 2
	brownoutMaxLevel   = brownoutNoSearch
)

// brownoutSampleCap bounds the per-interval sample window; at high request
// rates the p90 of the first few thousand waits of an interval is
// estimate enough.
const brownoutSampleCap = 4096

// brownout is the controller state. All methods are nil-safe so the server
// can leave it nil when disabled.
type brownout struct {
	cfg   BrownoutConfig
	level atomic.Int32

	mu      sync.Mutex
	samples []float64 // queue waits (ns) observed since the last evaluation
	hot     int       // consecutive hot evaluations
	cool    int       // consecutive cool evaluations
}

func newBrownout(cfg BrownoutConfig) *brownout {
	return &brownout{cfg: cfg.withDefaults()}
}

// currentLevel is the ladder level the serve path should apply right now.
func (b *brownout) currentLevel() int {
	if b == nil {
		return brownoutOff
	}
	return int(b.level.Load())
}

// observe records one request's queue wait into the current window. Called
// on every dequeue and every queue eviction — evicted waits are genuine
// pressure and must count.
func (b *brownout) observe(wait time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if len(b.samples) < brownoutSampleCap {
		b.samples = append(b.samples, float64(wait.Nanoseconds()))
	}
	b.mu.Unlock()
}

// brownoutTransition records one level change for counters and spans.
type brownoutTransition struct {
	from, to int
	p90      time.Duration
	samples  int
}

// evaluate runs one controller tick: classify the window as hot, cool, or
// deadband; advance the matching streak; move one level when a streak
// reaches its threshold. forceHot marks the tick hot regardless of the
// window (the server:brownout starve lever). Returns the transition and
// whether one happened.
func (b *brownout) evaluate(now time.Time, forceHot bool) (brownoutTransition, bool) {
	if b == nil {
		return brownoutTransition{}, false
	}
	b.mu.Lock()
	window := b.samples
	b.samples = nil
	b.mu.Unlock()

	p90 := time.Duration(stats.Percentile(window, 90))
	hot := forceHot || (len(window) > 0 && p90 > b.cfg.Target)
	cool := !hot && (len(window) == 0 ||
		float64(p90) < b.cfg.LowWater*float64(b.cfg.Target))

	b.mu.Lock()
	defer b.mu.Unlock()
	level := int(b.level.Load())
	tr := brownoutTransition{from: level, to: level, p90: p90, samples: len(window)}
	switch {
	case hot:
		b.cool = 0
		b.hot++
		if b.hot >= b.cfg.StepUpAfter && level < brownoutMaxLevel {
			b.hot = 0
			tr.to = level + 1
			b.level.Store(int32(tr.to))
			return tr, true
		}
	case cool:
		b.hot = 0
		b.cool++
		if b.cool >= b.cfg.StepDownAfter && level > brownoutOff {
			b.cool = 0
			tr.to = level - 1
			b.level.Store(int32(tr.to))
			return tr, true
		}
	default:
		// Deadband: the level holds and both streaks reset — this is the
		// other half of the hysteresis (a window hovering just under
		// Target neither degrades further nor recovers).
		b.hot, b.cool = 0, 0
	}
	return tr, false
}

// brownoutLoop is the server's controller goroutine, started by New when
// Config.Brownout is enabled and stopped by Drain after the workers exit.
// It is ticker-driven, never sleep-driven: tests drive brownoutTick
// directly with a manual clock (and CI lint bans bare time.Sleep in this
// package).
func (s *Server) brownoutLoop() {
	defer close(s.bwDone)
	t := time.NewTicker(s.cfg.Brownout.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.bwStop:
			return
		case now := <-t.C:
			s.brownoutTick(now)
		}
	}
}

// brownoutTick runs one controller evaluation and publishes any transition
// as counters and a span. Exposed (package-internally) so tests can drive
// the controller deterministically without the ticker.
func (s *Server) brownoutTick(now time.Time) {
	starve, herr := s.hookPoint(faultinject.PointServerBrownout)
	if herr != nil {
		// A panicking hook is contained and counted; the controller just
		// skips this tick rather than crashing the loop.
		return
	}
	tr, changed := s.brown.evaluate(now, starve)
	if !changed {
		return
	}
	if tr.to > tr.from {
		s.counters.brownoutDegrades.Add(1)
	} else {
		s.counters.brownoutRecovers.Add(1)
	}
	s.traceEvent("", "brownout", now, 0, map[string]any{
		"from":    tr.from,
		"to":      tr.to,
		"p90_ms":  float64(tr.p90) / float64(time.Millisecond),
		"samples": tr.samples,
	})
}

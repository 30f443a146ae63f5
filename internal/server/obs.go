package server

import (
	"errors"
	"time"

	"telamalloc"
	"telamalloc/internal/obs"
)

// Server metric names (the naming contract is recorded in DESIGN.md §11).
//
// Every ledger-backed series is func-backed: the scrape reads the same
// atomics Snapshot does, at scrape time, so /metrics and the Counters
// ledger can never disagree — there is one source of truth, exposed two
// ways. When several servers share one registry, the last server bound owns
// the func-backed series (obs last-registration-wins); give each server its
// own registry via Config.Obs when per-server numbers matter. The two
// latency histograms are registry-shared state: with several servers on one
// registry they aggregate across servers.
const (
	metricQueueDepth    = "telamalloc_server_queue_depth"
	metricQueueWait     = "telamalloc_server_queue_wait_seconds"
	metricService       = "telamalloc_server_service_seconds"
	metricSubmitted     = "telamalloc_server_submitted_total"
	metricAdmitted      = "telamalloc_server_admitted_total"
	metricOutcomes      = "telamalloc_server_outcomes_total"
	metricBreakerEvents = "telamalloc_server_breaker_events_total"
	metricPanics        = "telamalloc_server_contained_panics_total"
	metricForceCancel   = "telamalloc_server_force_cancelled_total"
	metricDedupShared   = "telamalloc_server_dedup_shared_total"
	metricHintReplays   = "telamalloc_server_hint_replays_total"
	metricCacheEvents   = "telamalloc_server_cache_events_total"
	metricCacheEntries  = "telamalloc_server_cache_entries"

	metricClassDepth = "telamalloc_server_class_queue_depth"
	metricExpired    = "telamalloc_server_expired_in_queue_total"
	metricTenantShed = "telamalloc_server_tenant_shed_total"

	metricBrownoutLevel       = "telamalloc_brownout_level"
	metricBrownoutTransitions = "telamalloc_brownout_transitions_total"
	metricBrownoutDegraded    = "telamalloc_brownout_degraded_total"
)

// serverMetrics holds the stateful series the serve path observes into;
// everything else is func-backed and needs no handle.
type serverMetrics struct {
	queueWait *obs.Histogram
	service   *obs.Histogram
}

// registry resolves the server's metrics registry (nil → process-global).
func (s *Server) registry() *obs.Registry {
	if s.cfg.Obs != nil {
		return s.cfg.Obs
	}
	return obs.Default()
}

// bindMetrics registers the server's series. Called once from New, after
// the queue and cache exist, so every closure captures fully-built state.
func (s *Server) bindMetrics() {
	r := s.registry()
	s.metrics = &serverMetrics{
		queueWait: r.Histogram(metricQueueWait, "time requests spent queued before a worker dequeued them"),
		service:   r.Histogram(metricService, "worker service time per dequeued request"),
	}
	r.GaugeFunc(metricQueueDepth, "current admission queue occupancy",
		func() int64 { return int64(s.queue.len()) })
	for c := 0; c < numClasses; c++ {
		c := c
		r.GaugeFunc(metricClassDepth, "current queue occupancy per admission class",
			func() int64 { return int64(s.queue.lenClass(c)) },
			obs.Label{Key: "class", Value: string(classOrder[c])})
	}

	c := &s.counters
	r.CounterFunc(metricSubmitted, "Submit calls", c.submitted.Load)
	r.CounterFunc(metricAdmitted, "requests that entered the queue", c.admitted.Load)
	for _, o := range []struct {
		label string
		fn    func() int64
	}{
		{"solved", c.solved.Load},
		{"degraded", c.degraded.Load},
		{"failed", c.failed.Load},
		{"cancelled", c.cancelled.Load},
		{"shed", c.shed.Load},
		{"rejected_draining", c.rejectedDraining.Load},
	} {
		r.CounterFunc(metricOutcomes, "terminal request outcomes", o.fn,
			obs.Label{Key: "outcome", Value: o.label})
	}
	for _, e := range []struct {
		label string
		fn    func() int64
	}{
		{"trip", c.breakerTrips.Load},
		{"probe", c.breakerProbes.Load},
		{"recover", c.breakerRecovered.Load},
	} {
		r.CounterFunc(metricBreakerEvents, "circuit breaker state transitions", e.fn,
			obs.Label{Key: "event", Value: e.label})
	}
	r.CounterFunc(metricPanics, "panics contained at a server boundary", c.containedPanics.Load)
	r.CounterFunc(metricForceCancel, "in-flight requests force-cancelled by an expired drain", c.forceCancelled.Load)
	r.CounterFunc(metricDedupShared, "responses shared from a concurrent identical solve", c.dedupShared.Load)
	r.CounterFunc(metricHintReplays, "pipeline runs settled by replaying a decision trace", c.hintReplays.Load)

	for _, e := range []struct {
		label string
		fn    func() int64
	}{
		{"dequeue", c.expiredDequeued.Load},
		{"evict", c.expiredEvicted.Load},
	} {
		r.CounterFunc(metricExpired, "requests whose budget expired while queued, by detection point", e.fn,
			obs.Label{Key: "point", Value: e.label})
	}
	r.CounterFunc(metricTenantShed, "requests shed by per-tenant limits", c.tenantShed.Load)

	r.GaugeFunc(metricBrownoutLevel, "current brownout ladder level (0 = full service)",
		func() int64 { return int64(s.brown.currentLevel()) })
	for _, e := range []struct {
		label string
		fn    func() int64
	}{
		{"degrade", c.brownoutDegrades.Load},
		{"recover", c.brownoutRecovers.Load},
	} {
		r.CounterFunc(metricBrownoutTransitions, "brownout ladder level transitions", e.fn,
			obs.Label{Key: "direction", Value: e.label})
	}
	r.CounterFunc(metricBrownoutDegraded, "responses delivered with the degraded-by-brownout marker", c.brownoutMarked.Load)

	for _, e := range []struct {
		label string
		fn    func(c Counters) int64
	}{
		{"hit", func(c Counters) int64 { return c.CacheHits }},
		{"miss", func(c Counters) int64 { return c.CacheMisses }},
		{"near_hit", func(c Counters) int64 { return c.CacheNearHits }},
		{"insert", func(c Counters) int64 { return c.CacheInsertions }},
		{"evict", func(c Counters) int64 { return c.CacheEvictions }},
	} {
		fn := e.fn
		r.CounterFunc(metricCacheEvents, "solution cache events", func() int64 {
			if s.cache == nil {
				return 0
			}
			return fn(s.Snapshot())
		}, obs.Label{Key: "event", Value: e.label})
	}
	r.GaugeFunc(metricCacheEntries, "solution cache entries", func() int64 {
		if s.cache == nil {
			return 0
		}
		return int64(s.cache.Counters().Len)
	})
}

// traceEvent emits one retroactive lifecycle span (admit, cache, dedup,
// queue, settle). Nil-safe: no tracer, no work.
func (s *Server) traceEvent(traceID, span string, start time.Time, dur time.Duration, attrs map[string]any) {
	s.cfg.Tracer.Emit(traceID, span, start, dur, attrs)
}

// traceStages emits one retroactive span per pipeline stage report,
// reconstructing start times by walking the reports backwards from now —
// the reports carry exact durations but not absolute starts, so the
// timeline is positionally approximate (gaps between stages are attributed
// to the stage before them) while every duration is exact.
func (s *Server) traceStages(traceID string, res telamalloc.PipelineResult) {
	tr := s.cfg.Tracer
	if tr == nil || len(res.Stages) == 0 {
		return
	}
	end := time.Now()
	for i := len(res.Stages) - 1; i >= 0; i-- {
		rep := res.Stages[i]
		attrs := make(map[string]any, 4)
		switch {
		case rep.Skipped:
			attrs["outcome"] = "skipped"
			attrs["reason"] = rep.SkipReason
		case rep.Err != nil:
			attrs["outcome"] = "failed"
			attrs["error"] = rep.Err.Error()
		default:
			attrs["outcome"] = "won"
		}
		if rep.Stats.Steps > 0 {
			attrs["steps"] = rep.Stats.Steps
			attrs["backtracks"] = rep.Stats.MinorBacktracks + rep.Stats.MajorBacktracks
		}
		if rep.StepBudget > 0 {
			attrs["step_budget"] = rep.StepBudget
		}
		start := end.Add(-rep.Elapsed)
		tr.Emit(traceID, "stage:"+rep.Stage, start, rep.Elapsed, attrs)
		end = start
	}
}

// submitOutcome labels the root request span's terminal outcome.
func submitOutcome(resp *Response, err error) string {
	if resp != nil {
		return string(resp.Outcome)
	}
	if err == nil {
		return string(OutcomeSolved)
	}
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		return "shed"
	case errors.Is(err, ErrDraining):
		return "rejected_draining"
	case errors.Is(err, ErrCancelled):
		return "cancelled"
	}
	return "failed"
}

package server

import "sync/atomic"

// counters aggregates service-level telemetry. All fields are updated with
// atomics; Snapshot reads them without stopping the world, so a snapshot
// taken while requests are in flight is internally consistent only once the
// server has drained.
type counters struct {
	submitted        atomic.Int64
	admitted         atomic.Int64
	shed             atomic.Int64
	rejectedDraining atomic.Int64
	solved           atomic.Int64
	degraded         atomic.Int64
	failed           atomic.Int64
	cancelled        atomic.Int64
	breakerTrips     atomic.Int64
	breakerProbes    atomic.Int64
	breakerRecovered atomic.Int64
	containedPanics  atomic.Int64
	forceCancelled   atomic.Int64
	dedupShared      atomic.Int64
	hintReplays      atomic.Int64
	expiredDequeued  atomic.Int64
	expiredEvicted   atomic.Int64
	tenantShed       atomic.Int64
	brownoutDegrades atomic.Int64
	brownoutRecovers atomic.Int64
	brownoutMarked   atomic.Int64
}

// Counters is a point-in-time snapshot of the service counters.
type Counters struct {
	// Submitted counts every Submit call.
	Submitted int64
	// Admitted counts requests that entered the queue.
	Admitted int64
	// Shed counts requests rejected by admission control (ErrOverloaded).
	Shed int64
	// RejectedDraining counts requests rejected after drain began.
	RejectedDraining int64
	// Solved / Degraded / Failed count pipeline verdicts delivered to
	// callers.
	Solved   int64
	Degraded int64
	Failed   int64
	// Cancelled counts requests whose caller's context ended first.
	Cancelled int64
	// BreakerTrips / BreakerProbes / BreakerRecoveries count circuit
	// breaker transitions: closed→open, half-open probe admissions, and
	// half-open→closed recoveries.
	BreakerTrips      int64
	BreakerProbes     int64
	BreakerRecoveries int64
	// ContainedPanics counts panics recovered at a server boundary (the
	// pipeline contains its own; those surface as Failed, not here).
	ContainedPanics int64
	// ForceCancelled counts in-flight requests cancelled by a drain whose
	// deadline expired.
	ForceCancelled int64
	// DedupShared counts responses shared from a concurrent identical
	// request's solve (singleflight followers). Each is also counted under
	// Solved — sharing changes who did the work, not the outcome.
	DedupShared int64
	// HintReplays counts near hits served by replaying the cached packing
	// of the same buffers under another capacity. Each is also counted
	// under Solved.
	HintReplays int64
	// ExpiredInQueue counts requests whose budget ran out while queued and
	// were short-circuited at dequeue; ExpiredEvicted counts those removed
	// by an eager eviction sweep before any worker touched them. Both are
	// also counted under Failed — these annotate how the failure happened.
	ExpiredInQueue int64
	ExpiredEvicted int64
	// TenantShed counts sheds decided by per-tenant limits (token bucket
	// or in-flight share). Each is also counted under Shed.
	TenantShed int64
	// BrownoutDegrades / BrownoutRecovers count brownout-ladder level
	// transitions (down and up). BrownoutDegraded counts responses
	// delivered with the DegradedByBrownout marker set.
	BrownoutDegrades int64
	BrownoutRecovers int64
	BrownoutDegraded int64
	// CacheHits / CacheMisses count solution-cache lookups; CacheNearHits
	// counts shape-only matches whose packing was tried. CacheInsertions -
	// CacheEvictions == CacheLen while the server lives. All zero when the
	// cache is disabled.
	CacheHits       int64
	CacheMisses     int64
	CacheNearHits   int64
	CacheInsertions int64
	CacheEvictions  int64
	CacheLen        int
}

// Snapshot returns the current counter values, merging in the solution
// cache's own telemetry when a cache is configured.
func (s *Server) Snapshot() Counters {
	c := &s.counters
	out := Counters{
		Submitted:         c.submitted.Load(),
		Admitted:          c.admitted.Load(),
		Shed:              c.shed.Load(),
		RejectedDraining:  c.rejectedDraining.Load(),
		Solved:            c.solved.Load(),
		Degraded:          c.degraded.Load(),
		Failed:            c.failed.Load(),
		Cancelled:         c.cancelled.Load(),
		BreakerTrips:      c.breakerTrips.Load(),
		BreakerProbes:     c.breakerProbes.Load(),
		BreakerRecoveries: c.breakerRecovered.Load(),
		ContainedPanics:   c.containedPanics.Load(),
		ForceCancelled:    c.forceCancelled.Load(),
		DedupShared:       c.dedupShared.Load(),
		HintReplays:       c.hintReplays.Load(),
		ExpiredInQueue:    c.expiredDequeued.Load(),
		ExpiredEvicted:    c.expiredEvicted.Load(),
		TenantShed:        c.tenantShed.Load(),
		BrownoutDegrades:  c.brownoutDegrades.Load(),
		BrownoutRecovers:  c.brownoutRecovers.Load(),
		BrownoutDegraded:  c.brownoutMarked.Load(),
	}
	if s.cache != nil {
		cc := s.cache.Counters()
		out.CacheHits = cc.Hits
		out.CacheMisses = cc.Misses
		out.CacheNearHits = cc.NearHits
		out.CacheInsertions = cc.Insertions
		out.CacheEvictions = cc.Evictions
		out.CacheLen = cc.Len
	}
	return out
}

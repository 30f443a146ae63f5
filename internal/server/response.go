package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"telamalloc"
)

// Outcome is the terminal verdict of a request that reached the pipeline.
// Requests that never reach it terminate through Submit's error instead:
// shed (ErrOverloaded), rejected while draining (ErrDraining), or cancelled
// (ErrCancelled). Every submitted request gets exactly one of these seven
// terminal outcomes.
type Outcome string

const (
	// OutcomeSolved is a full packing within the memory limit.
	OutcomeSolved Outcome = "solved"
	// OutcomeDegraded is a served-but-spilled packing: some buffers were
	// evicted off-chip (offset -1) so the rest fits.
	OutcomeDegraded Outcome = "degraded"
	// OutcomeFailed means the pipeline ran to a structured failure; the
	// Response carries the lower-bound evidence and Submit's error wraps
	// the pipeline sentinel.
	OutcomeFailed Outcome = "failed"
)

// Errors returned by Submit for requests that never reach a pipeline
// verdict.
var (
	// ErrOverloaded is wrapped by the *OverloadError Submit returns when
	// admission control sheds the request.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrDraining rejects requests submitted after Drain/Close began.
	ErrDraining = errors.New("server: draining, not admitting requests")
	// ErrCancelled reports that the caller's context ended before the
	// request reached a verdict; any in-flight work was cancelled.
	ErrCancelled = errors.New("server: request cancelled")
	// ErrDrainTimeout is returned by Drain when in-flight work had to be
	// force-cancelled because the drain deadline expired.
	ErrDrainTimeout = errors.New("server: drain deadline exceeded, in-flight work cancelled")
	// ErrExpiredInQueue is wrapped by the error Submit returns (alongside
	// telamalloc.ErrBudget) when a request's wall budget ran out while it
	// was still queued — at dequeue, or during an eager eviction sweep.
	// No solver step was spent on it. The Response carries OutcomeFailed.
	// Not retryable as-is: the same budget pushed through the same
	// congestion expires again; raise the budget or back off.
	ErrExpiredInQueue = errors.New("server: deadline exceeded in queue")
	// ErrBadPriority rejects a request whose Priority names no known
	// admission class. Typos are surfaced, never silently downgraded.
	ErrBadPriority = errors.New("server: unknown priority class")
)

// OverloadError is the typed load-shed error: the queue was full (or
// admission was starved by a fault), and RetryAfter estimates when capacity
// will free up — queue depth × observed request latency / workers.
type OverloadError struct {
	// QueueDepth is the queue occupancy at shed time.
	QueueDepth int
	// RetryAfter is the backoff hint. It is a floor, not a guarantee —
	// and crucially it is the SAME floor for every caller shed in the
	// same congestion episode, because it is priced from shared state
	// (queue depth × EWMA latency). A client that sleeps exactly
	// RetryAfter therefore retries in lockstep with every other shed
	// client and the herd re-arrives together, re-overloading the queue
	// it was shed from. Clients MUST add their own randomness on top:
	// wait RetryAfter plus a full-jitter term (uniform in [0, backoff)),
	// never RetryAfter alone. internal/client implements this contract
	// and tests that a fleet shed with one floor spreads its retries.
	RetryAfter time.Duration
	// Class is the admission class the shed request carried. QueueDepth
	// is class-aware: the work queued at or above Class's priority — what
	// the request would actually have waited behind — not total queue
	// occupancy.
	Class Priority
	// Tenant is the request's tenant label when the shed was a per-tenant
	// decision ("" for global sheds).
	Tenant string
	// Reason says why the request was shed: ShedQueueFull,
	// ShedTenantRate, or ShedTenantShare ("" from servers predating
	// overload control; treat as ShedQueueFull).
	Reason string
}

func (e *OverloadError) Error() string {
	msg := fmt.Sprintf("server: overloaded (queue depth %d), retry after %v", e.QueueDepth, e.RetryAfter)
	if e.Tenant != "" {
		msg += fmt.Sprintf(" (tenant %q: %s)", e.Tenant, e.Reason)
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrOverloaded) work.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Request is one allocation request submitted to the server.
type Request struct {
	// Problem is the allocation problem, in the public schema.
	Problem Problem
	// MaxSteps overrides the server's per-request step pot when > 0.
	MaxSteps int64
	// Timeout overrides the server's per-request wall budget when > 0 and
	// smaller. The budget is measured from Submit — queue wait spends it —
	// so tail latency stays bounded under load.
	Timeout time.Duration
	// Hint optionally supplies a decision trace from a previous response
	// (Response.Trace) to warm-start the solve. When nil the server fills
	// it from its own cache on a shape near-miss. Hints are advisory: every
	// replayed packing is re-validated before being served.
	Hint *telamalloc.DecisionTrace
	// TraceID labels this request's spans in the lifecycle trace stream
	// (Config.Tracer). Empty is fine — spans are still emitted, they are
	// just not attributable to one request.
	TraceID string
	// Priority selects the admission class (DESIGN.md §14): interactive
	// dequeues first and is never shed by lower-class floods; background
	// degrades first under brownout. Empty means PriorityBatch. Unknown
	// values are rejected with ErrBadPriority.
	Priority Priority
	// Tenant attributes the request to a fairness domain for per-tenant
	// token buckets and in-flight shares (Config.Tenant). Empty bypasses
	// tenant accounting.
	Tenant string
}

// Response is the structured per-request report.
type Response struct {
	// Outcome is the terminal verdict.
	Outcome Outcome
	// Winner is the pipeline stage that produced the packing ("" on
	// failure).
	Winner string
	// Offsets is the packing (spilled buffers carry -1). Nil on failure.
	Offsets []int64
	// Spilled lists evicted buffer indices for degraded outcomes.
	Spilled []int
	// SpillCost is the summed weight of evicted buffers.
	SpillCost int64
	// LowerBound and Memory carry the feasibility evidence: LowerBound >
	// Memory proves no full packing exists.
	LowerBound int64
	Memory     int64
	// SkippedByBreaker lists stages the per-stage circuit breaker removed
	// from this request's ladder.
	SkippedByBreaker []string
	// Err is the terminal error string for OutcomeFailed ("" otherwise).
	Err string

	// QueueWait is time spent queued before a worker picked the request up.
	QueueWait time.Duration
	// Elapsed is service time (dequeue to verdict), excluding queue wait.
	Elapsed time.Duration
	// CacheHit reports the response was served from the solution cache
	// without running the pipeline. Deduped reports it was shared from a
	// concurrent identical request's solve. HintReplayed reports the
	// pipeline short-circuited by replaying a decision trace. All three are
	// load- and scheduling-dependent, hence excluded from CanonicalJSON —
	// the offsets they annotate are byte-identical to a cold solve's.
	CacheHit     bool
	Deduped      bool
	HintReplayed bool
	// Trace is the replayable record of a full (non-degraded) packing; feed
	// it back through Request.Hint to warm-start a repeat. Excluded from
	// CanonicalJSON (it is derived data, not part of the verdict).
	Trace *telamalloc.DecisionTrace
	// DegradedByBrownout marks a verdict produced while the brownout
	// controller had this request's ladder degraded — its step pot was
	// shrunk or its search stage dropped. The packing is still valid; the
	// marker says it was bought at reduced quality. Load-dependent, hence
	// excluded from CanonicalJSON (and never set when the controller is
	// idle, which is what keeps no-overload responses byte-identical).
	DegradedByBrownout bool
}

// canonicalResponse is the deterministic subset of Response: everything a
// caller can act on, nothing that depends on timing or scheduling.
type canonicalResponse struct {
	Outcome          Outcome  `json:"outcome"`
	Winner           string   `json:"winner,omitempty"`
	Offsets          []int64  `json:"offsets,omitempty"`
	Spilled          []int    `json:"spilled,omitempty"`
	SpillCost        int64    `json:"spill_cost,omitempty"`
	LowerBound       int64    `json:"lower_bound"`
	Memory           int64    `json:"memory"`
	SkippedByBreaker []string `json:"skipped_by_breaker,omitempty"`
	Err              string   `json:"error,omitempty"`
}

// ResponseFrom maps a pipeline result to the response the server would
// serve for it, with no breaker bookkeeping (a direct run skips no stages).
// It exists for differential harnesses: run the same problem through a bare
// Allocator and through a served fleet, then compare CanonicalJSON
// byte-for-byte.
func ResponseFrom(res telamalloc.PipelineResult, perr error) *Response {
	return responseFrom(res, perr, nil)
}

// CanonicalJSON serialises the scheduling-invariant part of the response.
// For a fixed request against a fresh server, these bytes are identical
// at every parallelism level and on every serving path (cold, cached,
// deduped, hint-replayed) — the determinism contract the soak suite
// asserts.
func (r *Response) CanonicalJSON() []byte {
	b, err := json.Marshal(canonicalResponse{
		Outcome:          r.Outcome,
		Winner:           r.Winner,
		Offsets:          r.Offsets,
		Spilled:          r.Spilled,
		SpillCost:        r.SpillCost,
		LowerBound:       r.LowerBound,
		Memory:           r.Memory,
		SkippedByBreaker: r.SkippedByBreaker,
		Err:              r.Err,
	})
	if err != nil {
		// Unreachable: the struct is marshal-safe by construction.
		panic(err)
	}
	return b
}

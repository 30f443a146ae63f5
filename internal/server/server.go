// Package server is the long-lived allocation service around the public
// escalation pipeline: the serving harness production deployments put in
// front of the allocator when many clients hit it at model-load time
// (paper §2, §6.1). It adds the discipline the one-shot API lacks:
//
//   - admission control: a bounded queue; when it is full the request is
//     shed immediately with a typed *OverloadError carrying a retry-after
//     hint derived from queue depth × observed request latency, so load
//     sheds in O(1) instead of queueing without bound;
//   - per-request deadlines: one wall-clock pot per request, measured from
//     Submit so queue wait spends it, carved across pipeline stages by the
//     pipeline's share logic;
//   - per-stage circuit breakers: a stage that repeatedly fails with
//     ErrInternal is skipped for a cooldown window and re-admitted through
//     half-open probes;
//   - graceful drain: Drain stops admitting, lets in-flight work finish,
//     and force-cancels whatever remains when the drain deadline expires.
//
// Every submitted request reaches exactly one terminal outcome: solved,
// degraded, failed, shed, rejected-draining, or cancelled. No panic in a
// stage, a hook, or the server's own plumbing escapes Submit.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/cache"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/obs"
	"telamalloc/internal/stats"
)

// Problem aliases the public problem type so daemon code needs only this
// package.
type Problem = telamalloc.Problem

// pipelineStages is the full ladder the server admits stages from, in
// escalation order.
var pipelineStages = []string{
	telamalloc.StageGreedy,
	telamalloc.StageBestFit,
	telamalloc.StageSearch,
	telamalloc.StageSpill,
}

// Config tunes the server. The zero value is usable: GOMAXPROCS workers, a
// 64-deep queue, no per-request budget, breakers at 3 failures / 5s
// cooldown.
type Config struct {
	// Workers is the number of concurrent pipeline executions (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds each admission class's queue lane (default 64).
	// Submit sheds instead of blocking when the request's class lane is
	// full — lanes are independent, so a batch flood filling its own lane
	// can never shed interactive traffic.
	QueueDepth int
	// ClassDepth overrides QueueDepth per admission class (entries ≤ 0 or
	// with unknown keys are ignored). Sizing guidance: interactive lanes
	// deep enough to absorb bursts, background lanes shallow so stale
	// best-effort work sheds early.
	ClassDepth map[Priority]int
	// Tenant enables per-tenant fair shedding (token buckets + in-flight
	// share). Zero value = disabled; limits apply only to requests that
	// carry a Tenant label.
	Tenant TenantConfig
	// Brownout enables the brownout controller: under sustained queue-wait
	// pressure it steps the service down a degradation ladder (shrink step
	// pots → skip search for batch/background) and back up when pressure
	// clears, with hysteresis. Zero value = disabled.
	Brownout BrownoutConfig
	// RequestTimeout is the default per-request wall-clock pot, measured
	// from Submit (0 = none). Request.Timeout can only shrink it.
	RequestTimeout time.Duration
	// MaxSteps is the default per-request search step pot (0 = unlimited).
	MaxSteps int64
	// Parallelism is forwarded to the allocator (0 = GOMAXPROCS).
	Parallelism int
	// Breaker tunes the per-stage circuit breakers.
	Breaker BreakerConfig
	// DrainTimeout is Close's drain deadline (default 5s).
	DrainTimeout time.Duration
	// CacheSize bounds the solution cache (0 = default 256 entries,
	// negative = cache disabled). Cached answers are re-validated against
	// the submitting request's own problem before being served.
	CacheSize int
	// DisableDedup turns off singleflight deduplication of concurrent
	// identical requests, so every submission runs its own solve. Mainly
	// for tests that exercise admission control with identical floods.
	DisableDedup bool
	// Hook is the test-only fault-injection hook, threaded through the
	// server's own decision points (server:admit, server:dequeue,
	// server:drain, server:brownout, server:expire, server:tenant) and into
	// the pipeline's stage and solver points. Must be nil in production
	// configurations.
	Hook func(point string) bool
	// Obs, when non-nil, routes the server's metrics — queue depth, wait and
	// service histograms, the func-backed counter ledger — and every solve's
	// solver/pipeline telemetry into the given registry instead of the
	// process-global obs.Default().
	Obs *obs.Registry
	// Tracer, when non-nil, emits the request-lifecycle span stream
	// (admit → queue → cache/dedup → stage:<s> → settle under a root
	// "request" span) as JSON Lines. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	c.Breaker = c.Breaker.withDefaults()
	c.Tenant = c.Tenant.withDefaults()
	c.Brownout = c.Brownout.withDefaults()
	return c
}

// classBounds resolves the per-class queue bounds: QueueDepth everywhere,
// overridden by ClassDepth.
func (c Config) classBounds() [numClasses]int {
	var bounds [numClasses]int
	for i := range bounds {
		bounds[i] = c.QueueDepth
	}
	for p, d := range c.ClassDepth {
		if idx, ok := p.class(); ok && d > 0 {
			bounds[idx] = d
		}
	}
	return bounds
}

// Server is the long-lived allocation service. Build with New; it is safe
// for concurrent use by any number of clients.
type Server struct {
	cfg   Config
	queue *classQueue
	// alloc is the allocation handle every job runs on; it holds the
	// server-wide options, and runJob adds the per-request ones.
	alloc *telamalloc.Allocator

	tenants *tenantTable // nil when Config.Tenant is disabled
	brown   *brownout    // nil when Config.Brownout is disabled

	admitMu  sync.RWMutex // guards draining vs. enqueue (see Submit)
	draining bool
	closeQ   sync.Once

	workerWG sync.WaitGroup // worker loops

	forceCtx    context.Context // cancelled to force-cancel in-flight work
	forceCancel context.CancelFunc

	breakers map[string]*breaker
	latency  *stats.EWMA
	counters counters
	metrics  *serverMetrics

	cache *cache.Cache // nil when Config.CacheSize < 0

	bwStop     chan struct{} // brownout controller lifecycle
	bwStopOnce sync.Once
	bwDone     chan struct{}

	flightMu sync.Mutex
	flights  map[string]*flight
}

// flight is one in-progress solve that concurrent identical requests wait
// on. Only a full solved packing is shared; every other leader outcome
// sends the followers through the cold path.
type flight struct {
	done      chan struct{}
	shareable bool        // set before done closes
	entry     cache.Entry // canonical packing, valid when shareable
}

// job is one admitted request and its delivery state.
type job struct {
	req       Request
	ctx       context.Context
	cancel    context.CancelFunc
	stop      func() bool // deregisters the force-cancel AfterFunc
	submitted time.Time
	budget    time.Duration // effective wall pot (0 = none)
	class     int           // admission class index (see Priority.class)
	expires   time.Time     // submitted + budget; zero when budget == 0
	release   func()        // returns the tenant's in-flight slot; may be nil

	settled atomic.Bool
	done    chan struct{}
	resp    *Response
	err     error
}

// settle claims the right to deliver the job's terminal outcome. Exactly
// one of the worker and the Submit-side cancellation path wins.
func (j *job) settle() bool { return j.settled.CompareAndSwap(false, true) }

// New builds and starts the server. Stop it with Drain or Close.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	bounds := cfg.classBounds()
	alloc, err := telamalloc.New(
		telamalloc.WithParallelism(cfg.Parallelism),
		telamalloc.WithFaultHook(cfg.Hook),
		telamalloc.WithObservability(cfg.Obs))
	if err != nil {
		panic("server: allocator options failed validation: " + err.Error())
	}
	s := &Server{
		cfg:      cfg,
		queue:    newClassQueue(bounds),
		alloc:    alloc,
		breakers: make(map[string]*breaker, len(pipelineStages)),
		latency:  stats.NewEWMA(0.2),
		flights:  make(map[string]*flight),
		bwStop:   make(chan struct{}),
		bwDone:   make(chan struct{}),
	}
	if cfg.Tenant.enabled() {
		capacity := cfg.Workers
		for _, b := range bounds {
			capacity += b
		}
		s.tenants = newTenantTable(cfg.Tenant, capacity)
	}
	if cfg.Brownout.enabled() {
		s.brown = newBrownout(cfg.Brownout)
	}
	if cfg.CacheSize > 0 {
		s.cache = cache.New(cfg.CacheSize)
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	for _, stage := range pipelineStages {
		s.breakers[stage] = newBreaker(cfg.Breaker)
	}
	s.bindMetrics()
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if s.brown != nil {
		go s.brownoutLoop()
	} else {
		close(s.bwDone)
	}
	return s
}

// Submit runs one allocation request through the service and blocks until
// its terminal outcome. A non-nil Response is returned whenever the
// pipeline reached a verdict — including structured failures, where err
// additionally wraps the pipeline sentinel. A nil Response means the
// request never reached the allocator: shed (*OverloadError), rejected
// while draining (ErrDraining), or cancelled (ErrCancelled).
//
// Repeated traffic takes progressively cheaper paths: an exact-fingerprint
// cache hit answers without queueing at all; a shape near-miss seeds a
// decision-trace hint so the pipeline skips search; and concurrent
// identical requests share one solve (singleflight) while each caller
// keeps its own deadline, cancellation, and exactly-once terminal outcome.
// Every cached or shared packing is re-validated against the submitting
// request's own problem before it is served; validation failure falls
// through to the cold path, so reuse can change latency but never answers.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.counters.submitted.Add(1)
	t0 := time.Now()
	// The root span is opened here and closed on every exit path by the
	// single End below — the balance invariant (opened == closed after
	// drain) holds under cancellation and contained panics because no
	// path returns without passing through it.
	span := s.cfg.Tracer.Start(req.TraceID, "request")
	resp, err := s.submit(ctx, req, t0)
	span.Set("outcome", submitOutcome(resp, err))
	span.End()
	return resp, err
}

// submit is Submit's body, running inside the root request span.
func (s *Server) submit(ctx context.Context, req Request, t0 time.Time) (*Response, error) {
	class, ok := req.Priority.class()
	if !ok {
		// A typo'd class is a bad request, not a degraded one — counted as
		// failed so the terminal-outcome ledger still balances.
		s.counters.failed.Add(1)
		s.traceEvent(req.TraceID, "admit", time.Now(), 0, map[string]any{"verdict": "bad_priority"})
		return nil, fmt.Errorf("%w %q", ErrBadPriority, req.Priority)
	}
	starve, herr := s.hookPoint(faultinject.PointServerAdmit)
	if herr != nil {
		s.counters.failed.Add(1)
		return nil, herr
	}
	if starve {
		// A starved admission models exhausted admission capacity: shed.
		s.traceEvent(req.TraceID, "admit", time.Now(), 0, map[string]any{"verdict": "shed"})
		return nil, s.shed(class)
	}

	// Draining rejects before the reuse layer: a server that is shutting
	// down must not keep answering from its cache. submitQueued re-checks
	// under the lock that actually guards the queue close.
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		s.counters.rejectedDraining.Add(1)
		s.traceEvent(req.TraceID, "admit", time.Now(), 0, map[string]any{"verdict": "draining"})
		return nil, ErrDraining
	}

	q := internalProblem(req.Problem)
	if q.Validate() != nil {
		// Fingerprints of invalid problems are meaningless; let the queue
		// path produce the structured rejection.
		return s.submitQueued(ctx, req, t0, cache.Fingerprint{})
	}
	fp, perm := cache.Canonicalize(q)

	if s.cache != nil {
		c0 := time.Now()
		if resp := s.cacheLookup(q, fp, perm, t0); resp != nil {
			s.counters.solved.Add(1)
			s.traceEvent(req.TraceID, "cache", c0, time.Since(c0), map[string]any{"verdict": "hit"})
			return resp, nil
		}
		verdict := "miss"
		if req.Hint == nil {
			if e, ok := s.cache.GetShape(fp.ShapeKey, fp.Key); ok {
				// Same buffers, different capacity: the old packing may still
				// fit. Ride it down as a hint; the pipeline validates before
				// trusting it.
				req.Hint = &telamalloc.DecisionTrace{Winner: e.Winner, Shape: fp.ShapeKey, Offsets: e.Offsets}
				verdict = "near_hit"
			}
		}
		s.traceEvent(req.TraceID, "cache", c0, time.Since(c0), map[string]any{"verdict": verdict})
	}

	if s.cfg.DisableDedup {
		return s.submitQueued(ctx, req, t0, fp)
	}
	maxSteps := s.cfg.MaxSteps
	if req.MaxSteps > 0 {
		maxSteps = req.MaxSteps
	}
	// The flight key pins everything that could change the answer's bytes:
	// the full problem fingerprint and the effective step pot. Timeouts
	// deliberately don't join the key — a solved packing is valid under any
	// deadline, and followers keep their own budget timers below.
	flightKey := fp.Key + "#" + strconv.FormatInt(maxSteps, 10)
	s.flightMu.Lock()
	if f, ok := s.flights[flightKey]; ok {
		s.flightMu.Unlock()
		return s.awaitFlight(ctx, f, req, q, fp, perm, t0)
	}
	f := &flight{done: make(chan struct{})}
	s.flights[flightKey] = f
	s.flightMu.Unlock()

	resp, err := s.submitQueued(ctx, req, t0, fp)
	if err == nil && resp != nil && resp.Outcome == OutcomeSolved && resp.Trace != nil {
		f.entry = cache.Entry{Winner: resp.Winner, Offsets: resp.Trace.Offsets}
		f.shareable = true
	}
	s.flightMu.Lock()
	delete(s.flights, flightKey)
	s.flightMu.Unlock()
	close(f.done)
	return resp, err
}

// internalProblem converts the public problem into the internal schema the
// fingerprint and validators operate on. Buffer order is preserved, so the
// canonical permutation computed here transports response offsets too.
func internalProblem(p Problem) *buffers.Problem {
	q := &buffers.Problem{Memory: p.Memory, Name: p.Name}
	for _, b := range p.Buffers {
		q.Buffers = append(q.Buffers, buffers.Buffer{
			Start: b.Start, End: b.End, Size: b.Size, Align: b.Align,
		})
	}
	q.Normalize()
	return q
}

// effectiveBudget resolves the per-request wall pot: the server default,
// shrunk by the request's own timeout.
func (s *Server) effectiveBudget(req Request) time.Duration {
	budget := s.cfg.RequestTimeout
	if req.Timeout > 0 && (budget == 0 || req.Timeout < budget) {
		budget = req.Timeout
	}
	return budget
}

// cacheLookup serves an exact-fingerprint cache hit without touching the
// queue. An entry that fails validation is dropped and the request
// proceeds cold — a bad entry costs one validation sweep, never a wrong
// answer.
func (s *Server) cacheLookup(q *buffers.Problem, fp cache.Fingerprint, perm []int, t0 time.Time) *Response {
	if s.cache == nil {
		return nil
	}
	e, ok := s.cache.Get(fp.Key)
	if !ok {
		return nil
	}
	resp := reuse(e, q, fp, perm, t0)
	if resp == nil {
		s.cache.Drop(fp.Key)
		return nil
	}
	resp.CacheHit = true
	return resp
}

// reuse answers from a packing solved for a fingerprint-equal problem —
// a cache entry or a leader's shared verdict: replay it through the
// canonical permutation and re-validate it against this request's own
// problem. It returns nil when the packing does not transport.
func reuse(e cache.Entry, q *buffers.Problem, fp cache.Fingerprint, perm []int, t0 time.Time) *Response {
	offsets := cache.Replay(e.Offsets, perm)
	if offsets == nil || (&buffers.Solution{Offsets: offsets}).Validate(q) != nil {
		return nil
	}
	return &Response{
		Outcome:    OutcomeSolved,
		Winner:     e.Winner,
		Offsets:    offsets,
		LowerBound: buffers.Contention(q).Peak(),
		Memory:     q.Memory,
		Elapsed:    time.Since(t0),
		Trace:      &telamalloc.DecisionTrace{Winner: e.Winner, Shape: fp.ShapeKey, Offsets: e.Offsets},
	}
}

// awaitFlight is the follower side of singleflight: wait for the leader's
// verdict while keeping this caller's own deadline and cancellation. Only
// a full solved packing is shared, and it is re-validated against the
// follower's own problem first; any other leader outcome — failure,
// degradation, cancellation, a packing that doesn't validate — sends the
// follower through the cold path so its verdict is earned, not inherited.
func (s *Server) awaitFlight(ctx context.Context, f *flight, req Request, q *buffers.Problem, fp cache.Fingerprint, perm []int, t0 time.Time) (*Response, error) {
	w0 := time.Now()
	var budgetC <-chan time.Time
	if budget := s.effectiveBudget(req); budget > 0 {
		timer := time.NewTimer(budget - time.Since(t0))
		defer timer.Stop()
		budgetC = timer.C
	}
	select {
	case <-f.done:
		if f.shareable {
			if resp := reuse(f.entry, q, fp, perm, t0); resp != nil {
				resp.Deduped = true
				s.counters.dedupShared.Add(1)
				s.counters.solved.Add(1)
				s.traceEvent(req.TraceID, "dedup", w0, time.Since(w0), map[string]any{"verdict": "shared"})
				return resp, nil
			}
		}
		s.traceEvent(req.TraceID, "dedup", w0, time.Since(w0), map[string]any{"verdict": "cold"})
		return s.submitQueued(ctx, req, t0, fp)
	case <-ctx.Done():
		s.counters.cancelled.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrCancelled, context.Cause(ctx))
	case <-budgetC:
		// The shared solve outlived this caller's own pot. The queue path
		// turns the spent budget into its usual fast-fail verdict (and
		// still sheds or rejects if the server state demands it).
		return s.submitQueued(ctx, req, t0, fp)
	}
}

// submitQueued is the cold path: enqueue the request, wait for the worker's
// verdict or the caller's cancellation, and feed full packings back into
// the solution cache. t0 is the Submit entry time, so queue-wait accounting
// and the request budget span reuse-layer time too.
func (s *Server) submitQueued(ctx context.Context, req Request, t0 time.Time, fp cache.Fingerprint) (*Response, error) {
	class, _ := req.Priority.class() // validated at the top of submit
	jctx, cancel := context.WithCancel(ctx)
	j := &job{
		req:       req,
		ctx:       jctx,
		cancel:    cancel,
		stop:      context.AfterFunc(s.forceCtx, cancel),
		submitted: t0,
		budget:    s.effectiveBudget(req),
		class:     class,
		done:      make(chan struct{}),
	}
	if j.budget > 0 {
		j.expires = t0.Add(j.budget)
	}

	// Per-tenant admission runs before the queue: a tenant over its rate
	// or share is shed without consuming a queue slot. The release func
	// returns the in-flight slot on every exit — settle, eviction, or a
	// failed enqueue below.
	if s.tenants != nil && req.Tenant != "" {
		tstarve, therr := s.hookPoint(faultinject.PointServerTenant)
		if therr != nil {
			j.stop()
			cancel()
			s.counters.failed.Add(1)
			return nil, therr
		}
		release, reason, rateWait := s.tenants.admit(req.Tenant, time.Now(), tstarve)
		if reason != "" {
			j.stop()
			cancel()
			s.traceEvent(req.TraceID, "admit", time.Now(), 0,
				map[string]any{"verdict": "tenant_shed", "tenant": req.Tenant, "reason": reason})
			return nil, s.shedTenant(class, req.Tenant, reason, rateWait)
		}
		j.release = release
	}

	// The RLock makes "set draining, then close the queue" safe: Drain
	// takes the write lock between those steps, so no Submit can observe
	// not-draining stale enough to matter (and a push that still loses the
	// race reports pushClosed and is rejected the same way).
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		return nil, s.rejectDraining(j)
	}
	st := s.queue.push(j)
	s.admitMu.RUnlock()
	if st == pushFull {
		// The class lane is full. Before shedding, sweep out queued jobs
		// whose deadlines already passed — dead work holding live slots —
		// and retry once. Under pressure this converts "shed a live
		// request" into "evict a doomed one".
		s.expireSweep(time.Now())
		s.admitMu.RLock()
		if s.draining {
			s.admitMu.RUnlock()
			return nil, s.rejectDraining(j)
		}
		st = s.queue.push(j)
		s.admitMu.RUnlock()
	}
	switch st {
	case pushOK:
		s.counters.admitted.Add(1)
		s.traceEvent(req.TraceID, "admit", time.Now(), 0, map[string]any{"verdict": "admitted"})
	case pushClosed:
		return nil, s.rejectDraining(j)
	default: // pushFull
		j.stop()
		cancel()
		if j.release != nil {
			j.release()
		}
		s.traceEvent(req.TraceID, "admit", time.Now(), 0, map[string]any{"verdict": "shed"})
		return nil, s.shed(class)
	}

	select {
	case <-j.done:
		s.cachePut(j.resp, j.err, fp)
		return j.resp, j.err
	case <-ctx.Done():
		if j.settle() {
			cancel() // abort queued or in-flight work
			s.counters.cancelled.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrCancelled, context.Cause(ctx))
		}
		// The worker delivered first; its verdict stands.
		<-j.done
		s.cachePut(j.resp, j.err, fp)
		return j.resp, j.err
	}
}

// cachePut feeds a solved full packing back into the cache. The pipeline
// already exports every full packing in canonical order as resp.Trace.
// Degraded packings are not cacheable (spilled offsets aren't
// transportable) and failures carry no packing.
func (s *Server) cachePut(resp *Response, err error, fp cache.Fingerprint) {
	if s.cache == nil || err != nil || resp == nil || resp.Outcome != OutcomeSolved || resp.Trace == nil || fp.Key == "" {
		return
	}
	s.cache.Put(fp, cache.Entry{Winner: resp.Winner, Offsets: resp.Trace.Offsets})
}

// rejectDraining is the common admission-refused-by-drain exit: undo the
// job's registrations and report ErrDraining.
func (s *Server) rejectDraining(j *job) error {
	j.stop()
	j.cancel()
	if j.release != nil {
		j.release()
	}
	s.counters.rejectedDraining.Add(1)
	s.traceEvent(j.req.TraceID, "admit", time.Now(), 0, map[string]any{"verdict": "draining"})
	return ErrDraining
}

// shed records a load-shed and prices the retry-after hint. Depth is
// class-aware: the work queued at or above the request's class — what it
// would actually have waited behind.
func (s *Server) shed(class int) error {
	depth := s.queue.lenAhead(class)
	s.counters.shed.Add(1)
	return &OverloadError{
		QueueDepth: depth,
		RetryAfter: s.retryAfter(depth),
		Class:      classOrder[class],
		Reason:     ShedQueueFull,
	}
}

// shedTenant records a per-tenant shed. The retry-after floor is the larger
// of the global congestion estimate and the tenant's own bucket-refill
// time — a rate-limited tenant retrying into an idle server must still wait
// out its own quota.
func (s *Server) shedTenant(class int, tenant, reason string, rateWait time.Duration) error {
	depth := s.queue.lenAhead(class)
	ra := s.retryAfter(depth)
	if rateWait > ra {
		ra = rateWait
	}
	if ra > maxRetryAfter {
		ra = maxRetryAfter
	}
	s.counters.shed.Add(1)
	s.counters.tenantShed.Add(1)
	return &OverloadError{
		QueueDepth: depth,
		RetryAfter: ra,
		Class:      classOrder[class],
		Tenant:     tenant,
		Reason:     reason,
	}
}

// maxRetryAfter caps the retry-after hint. Without it a pathological
// latency estimate (one multi-minute solve observed into the EWMA) would
// tell shed callers to go away for hours — a self-inflicted outage that
// outlives the congestion it was priced from.
const maxRetryAfter = time.Minute

// retryAfter estimates when a slot frees up: the work ahead of the caller
// (depth+1 requests) divided across the workers, at the observed per-request
// service latency. Floored at 1ms so callers never busy-loop on a cold
// estimator; capped at maxRetryAfter so one slow solve cannot price callers
// out for hours. Monotonically non-decreasing in depth (a table test pins
// this — clients infer congestion severity from the hint).
func (s *Server) retryAfter(depth int) time.Duration {
	lat := time.Duration(s.latency.Value())
	if lat < time.Millisecond {
		lat = time.Millisecond
	}
	if lat > maxRetryAfter {
		// Pre-clamp so the multiply below cannot overflow int64 at any
		// realistic depth.
		lat = maxRetryAfter
	}
	if depth < 0 {
		depth = 0
	}
	ra := time.Duration(depth+1) * lat / time.Duration(s.cfg.Workers)
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	if ra > maxRetryAfter {
		ra = maxRetryAfter
	}
	return ra
}

// expireSweep eagerly evicts queued jobs whose deadlines have passed and
// settles each with the typed expiry verdict. force (the server:expire
// starve lever) treats every deadline-carrying job as expired.
func (s *Server) expireSweep(now time.Time) {
	force, herr := s.hookPoint(faultinject.PointServerExpire)
	if herr != nil {
		// A panicking hook is contained and counted; skip the sweep.
		return
	}
	for _, j := range s.queue.evictExpired(now, force) {
		s.expireJob(j, now)
	}
}

// expiredErr builds the typed expired-in-queue error. It wraps both
// ErrExpiredInQueue (the queue discipline's typed verdict) and
// telamalloc.ErrBudget (what the budget-expiry has always worn), so both
// errors.Is checks hold.
func expiredErr(budget, wait time.Duration) error {
	return fmt.Errorf("%w: %w: request budget %v exhausted in queue (waited %v)",
		ErrExpiredInQueue, telamalloc.ErrBudget, budget, wait)
}

// expireJob settles one evicted job with the expired-in-queue verdict. The
// job never reaches a worker: its queue wait is observed (the wait
// histograms count every admitted request exactly once) but no service
// time is, and no solver step is spent.
func (s *Server) expireJob(j *job, now time.Time) {
	defer j.stop()
	defer j.cancel()
	if j.release != nil {
		j.release()
	}
	wait := now.Sub(j.submitted)
	s.metrics.queueWait.ObserveDuration(wait.Nanoseconds())
	s.brown.observe(wait)
	s.traceEvent(j.req.TraceID, "queue", j.submitted, wait, nil)
	err := expiredErr(j.budget, wait)
	resp := &Response{
		Outcome:   OutcomeFailed,
		Memory:    j.req.Problem.Memory,
		Err:       err.Error(),
		QueueWait: wait,
	}
	j.resp, j.err = resp, err
	if j.settle() {
		s.counters.failed.Add(1)
		s.counters.expiredEvicted.Add(1)
		s.traceEvent(j.req.TraceID, "expire", now, 0, map[string]any{"verdict": "evicted", "waited_ms": float64(wait) / float64(time.Millisecond)})
	}
	close(j.done)
}

// hookPoint announces a server decision point to the fault hook with the
// server's own containment: a panicking hook surfaces as ErrInternal, never
// as a crash.
func (s *Server) hookPoint(point string) (starve bool, err error) {
	if s.cfg.Hook == nil {
		return false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.counters.containedPanics.Add(1)
			starve = false
			err = fmt.Errorf("%w: panic at %s: %v", telamalloc.ErrInternal, point, r)
		}
	}()
	return s.cfg.Hook(point), nil
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.serveJob(j)
	}
}

// serveJob runs one job to its terminal outcome and delivers it.
func (s *Server) serveJob(j *job) {
	defer j.stop()
	defer j.cancel()
	if j.release != nil {
		defer j.release()
	}
	wait := time.Since(j.submitted)
	s.metrics.queueWait.ObserveDuration(wait.Nanoseconds())
	s.brown.observe(wait)
	s.traceEvent(j.req.TraceID, "queue", j.submitted, wait, nil)
	start := time.Now()
	resp, err := s.runJob(j, wait)
	elapsed := time.Since(start)
	s.latency.Observe(float64(elapsed))
	s.metrics.service.ObserveDuration(elapsed.Nanoseconds())
	if resp != nil {
		resp.QueueWait = wait
		resp.Elapsed = elapsed
	}
	j.resp, j.err = resp, err
	delivered := j.settle()
	if delivered {
		if resp != nil && resp.HintReplayed {
			s.counters.hintReplays.Add(1)
		}
		if resp != nil && resp.DegradedByBrownout {
			s.counters.brownoutMarked.Add(1)
		}
		switch {
		case err == nil && resp.Outcome == OutcomeDegraded:
			s.counters.degraded.Add(1)
		case err == nil:
			s.counters.solved.Add(1)
		case errors.Is(err, ErrCancelled):
			s.counters.cancelled.Add(1)
			if s.forceCtx.Err() != nil {
				s.counters.forceCancelled.Add(1)
			}
		default:
			s.counters.failed.Add(1)
		}
	}
	if s.cfg.Tracer != nil {
		attrs := map[string]any{
			"outcome": submitOutcome(resp, err),
			// delivered=false means the caller's cancellation path won the
			// settle race and this verdict was discarded.
			"delivered": delivered,
		}
		if resp != nil {
			if resp.Winner != "" {
				attrs["winner"] = resp.Winner
			}
			if resp.DegradedByBrownout {
				attrs["degraded_by_brownout"] = true
			}
			if len(resp.SkippedByBreaker) > 0 {
				attrs["skipped_by_breaker"] = resp.SkippedByBreaker
			}
		}
		s.traceEvent(j.req.TraceID, "settle", start, elapsed, attrs)
	}
	close(j.done)
}

// runJob executes the pipeline for one job on the worker goroutine. Any
// panic that slips past the inner boundaries is contained here and reported
// as a failed outcome.
func (s *Server) runJob(j *job, wait time.Duration) (resp *Response, err error) {
	var decisions map[string]decision // unsettled breaker decisions
	defer func() {
		if r := recover(); r != nil {
			s.counters.containedPanics.Add(1)
			if decisions != nil {
				// Settle the breaker decisions with no signal: without this,
				// a half-open probe slot would stay held forever and the
				// stage could never be re-admitted.
				s.observeBreakers(decisions, telamalloc.PipelineResult{})
			}
			err = fmt.Errorf("%w: panic in server worker: %v", telamalloc.ErrInternal, r)
			resp = &Response{Outcome: OutcomeFailed, Memory: j.req.Problem.Memory, Err: err.Error()}
		}
	}()

	if s.cfg.Hook != nil {
		// Starvation has no meaning at dequeue; stalls and panics do, and
		// a panic here is contained by the deferred recover above.
		s.cfg.Hook(faultinject.PointServerDequeue)
	}
	if cerr := j.ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%w: %v", ErrCancelled, cerr)
	}
	var timeout time.Duration
	if j.budget > 0 {
		timeout = j.budget - wait
		if timeout <= 0 {
			// The pot was spent waiting in line. The typed short-circuit —
			// instead of running a doomed 0-budget pipeline — keeps
			// shedding latency bounded under sustained overload and spends
			// zero solver steps on dead work.
			s.counters.expiredDequeued.Add(1)
			err = expiredErr(j.budget, wait)
			return &Response{Outcome: OutcomeFailed, Memory: j.req.Problem.Memory, Err: err.Error()}, err
		}
	}

	// The brownout level is read once per job: a mid-solve transition
	// affects the next job, never a running one.
	level := s.brown.currentLevel()
	browned := false

	ladder, skipped, decisions := s.admitStages()
	if level >= brownoutNoSearch && j.class != 0 {
		// Level 2: drop the expensive search stage for batch/background.
		// Interactive keeps its full ladder at every brownout level.
		trimmed := make([]string, 0, len(ladder))
		for _, st := range ladder {
			if st == telamalloc.StageSearch {
				continue
			}
			trimmed = append(trimmed, st)
		}
		if len(trimmed) > 0 && len(trimmed) < len(ladder) {
			ladder = trimmed
			browned = true
		}
	}
	opts := []telamalloc.Option{telamalloc.WithStages(ladder...)}
	maxSteps := s.cfg.MaxSteps
	if j.req.MaxSteps > 0 {
		maxSteps = j.req.MaxSteps
	}
	if level >= brownoutShrinkPots && maxSteps > 0 {
		// Levels 1+: halve the step pot per level. The request still gets
		// an answer — greedy and best-fit are step-free — it just buys
		// less search for it.
		shrunk := maxSteps >> level
		if shrunk < 1 {
			shrunk = 1
		}
		if shrunk < maxSteps {
			maxSteps = shrunk
			browned = true
		}
	}
	if maxSteps > 0 {
		opts = append(opts, telamalloc.WithMaxSteps(maxSteps))
	}
	if timeout > 0 {
		opts = append(opts, telamalloc.WithTimeout(timeout))
	}
	if j.req.Hint != nil {
		opts = append(opts, telamalloc.WithHints(j.req.Hint))
	}

	res, perr := s.alloc.Pipeline(j.ctx, j.req.Problem, opts...)
	s.observeBreakers(decisions, res)
	decisions = nil // settled: a later panic must not release probe slots twice
	s.traceStages(j.req.TraceID, res)
	if errors.Is(perr, telamalloc.ErrCancelled) {
		return nil, fmt.Errorf("%w: %v", ErrCancelled, perr)
	}
	resp = responseFrom(res, perr, skipped)
	if browned {
		// The verdict was bought with a degraded ladder (shrunk pot or
		// dropped search) — mark it.
		resp.DegradedByBrownout = true
	}
	return resp, perr
}

// responseFrom maps a pipeline result to the service response.
func responseFrom(res telamalloc.PipelineResult, perr error, skipped []string) *Response {
	r := &Response{
		LowerBound:       res.LowerBound,
		Memory:           res.Memory,
		SkippedByBreaker: skipped,
	}
	if perr != nil {
		r.Outcome = OutcomeFailed
		r.Err = perr.Error()
		return r
	}
	r.Winner = res.Winner
	r.Offsets = res.Solution.Offsets
	r.Trace = res.Trace
	r.HintReplayed = res.HintReplayed
	if res.Degraded {
		r.Outcome = OutcomeDegraded
		r.Spilled = res.Spill.Spilled
		r.SpillCost = res.Spill.SpillCost
	} else {
		r.Outcome = OutcomeSolved
	}
	return r
}

// admitStages consults every stage's breaker and builds this request's
// ladder. If every breaker is open the full ladder runs anyway — running
// nothing guarantees failure, so total-open has nothing left to protect —
// with no breaker observations recorded for the bypass.
func (s *Server) admitStages() (ladder, skipped []string, decisions map[string]decision) {
	now := time.Now()
	decisions = make(map[string]decision, len(pipelineStages))
	for _, stage := range pipelineStages {
		d := s.breakers[stage].admit(now)
		if d.probe {
			s.counters.breakerProbes.Add(1)
		}
		decisions[stage] = d
		if d.include {
			ladder = append(ladder, stage)
		} else {
			skipped = append(skipped, stage)
		}
	}
	if len(ladder) == 0 {
		return append([]string(nil), pipelineStages...), nil, decisions
	}
	return ladder, skipped, decisions
}

// observeBreakers settles each stage's breaker decision against the
// pipeline's per-stage reports. Only ErrInternal counts as a failure:
// budget exhaustion is the ladder's normal escalation path on hard
// instances, not a sign the stage is broken.
func (s *Server) observeBreakers(decisions map[string]decision, res telamalloc.PipelineResult) {
	now := time.Now()
	reports := make(map[string]telamalloc.StageReport, len(res.Stages))
	for _, rep := range res.Stages {
		reports[rep.Stage] = rep
	}
	for stage, d := range decisions {
		rep, ok := reports[stage]
		ran := ok && !rep.Skipped
		if ran && errors.Is(rep.Err, telamalloc.ErrCancelled) {
			// A cancelled stage (caller gave up, drain force-cancel) carries
			// no health signal: it must not close a half-open breaker as a
			// "successful" probe, and it is not a failure either. Report it
			// as not-run so the breaker releases the probe slot without a
			// verdict.
			ran = false
		}
		failed := ran && errors.Is(rep.Err, telamalloc.ErrInternal)
		tripped, recovered := s.breakers[stage].observe(d, ran, failed, now)
		if tripped {
			s.counters.breakerTrips.Add(1)
		}
		if recovered {
			s.counters.breakerRecovered.Add(1)
		}
	}
}

// Drain stops admitting requests, waits for queued and in-flight work to
// finish, and — if ctx expires first — force-cancels whatever remains and
// waits for the cancellations to land (bounded by the solver's cooperative
// polling stride). It returns nil on a clean drain and ErrDrainTimeout when
// force-cancellation was needed.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	s.admitMu.Unlock()
	if !already {
		if _, err := s.hookPoint(faultinject.PointServerDrain); err != nil {
			// A crashing drain hook must not block shutdown; it is
			// already counted as a contained panic.
			_ = err
		}
		s.closeQ.Do(func() { s.queue.close() })
	}
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		// The brownout controller outlives the workers and stops only once
		// they are gone: its last evaluations see the final queue waits
		// drain out.
		s.bwStopOnce.Do(func() { close(s.bwStop) })
		<-s.bwDone
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceCancel()
		<-done
		return fmt.Errorf("%w (%v)", ErrDrainTimeout, context.Cause(ctx))
	}
}

// Close drains with the configured DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Drain(ctx)
}

// QueueDepth reports current queue occupancy across all classes
// (diagnostic).
func (s *Server) QueueDepth() int { return s.queue.len() }

// BrownoutLevel reports the brownout ladder level currently applied to new
// jobs (0 = full service; diagnostic).
func (s *Server) BrownoutLevel() int { return s.brown.currentLevel() }

package server

// Tests for the overload-control layer (DESIGN.md §14): priority classes
// with per-class bounds, deadline-aware queueing (typed expiry at dequeue
// and eager eviction), per-tenant fair shedding, the brownout controller's
// hysteresis, and the sustained-overload acceptance soak (`make
// overloadsoak`, under -race).

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/stats"
)

// --- Priority classes -----------------------------------------------------

func TestPriorityClassMapping(t *testing.T) {
	cases := []struct {
		p     Priority
		class int
		ok    bool
	}{
		{PriorityInteractive, 0, true},
		{PriorityBatch, 1, true},
		{Priority(""), 1, true}, // absent means batch
		{PriorityBackground, 2, true},
		{Priority("Interactive"), 0, false}, // case-sensitive: reject, don't guess
		{Priority("realtime"), 0, false},
	}
	for _, c := range cases {
		got, ok := c.p.class()
		if ok != c.ok || (ok && got != c.class) {
			t.Errorf("Priority(%q).class() = (%d, %v), want (%d, %v)", c.p, got, ok, c.class, c.ok)
		}
		if c.p.Valid() != c.ok {
			t.Errorf("Priority(%q).Valid() = %v, want %v", c.p, c.p.Valid(), c.ok)
		}
	}
}

func TestUnknownPriorityRejectedTyped(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: -1})
	defer mustDrain(t, s)
	resp, err := s.Submit(context.Background(), Request{Problem: easyProblem(), Priority: "urgent"})
	if resp != nil {
		t.Fatalf("bad-priority request carried a response: %+v", resp)
	}
	if !errors.Is(err, ErrBadPriority) {
		t.Fatalf("want ErrBadPriority, got %v", err)
	}
	c := s.Snapshot()
	if c.Failed != 1 || c.Submitted != 1 {
		t.Fatalf("ledger: want submitted=1 failed=1, got %+v", c)
	}
}

func TestClassQueueStrictPriorityAndBounds(t *testing.T) {
	q := newClassQueue([numClasses]int{2, 2, 1})
	mk := func(class int) *job { return &job{class: class, done: make(chan struct{})} }

	bg, ba, in := mk(2), mk(1), mk(0)
	for _, j := range []*job{bg, ba, in} {
		if st := q.push(j); st != pushOK {
			t.Fatalf("push class %d: %v", j.class, st)
		}
	}
	// Background lane (bound 1) is full; batch and interactive lanes are not.
	if st := q.push(mk(2)); st != pushFull {
		t.Fatalf("background over bound: want pushFull, got %v", st)
	}
	if st := q.push(mk(0)); st != pushOK {
		t.Fatalf("interactive must not be bounded by the background lane: %v", st)
	}
	if got := q.len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	if got := q.lenAhead(1); got != 3 {
		t.Fatalf("lenAhead(batch) = %d, want 3 (2 interactive + 1 batch)", got)
	}

	// Strict priority: both interactive jobs, then batch, then background —
	// regardless of push order.
	var order []int
	for i := 0; i < 4; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue reported closed", i)
		}
		order = append(order, j.class)
	}
	want := []int{0, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", order, want)
		}
	}

	// Close semantics mirror a closed channel: queued work still pops, then
	// ok=false; pushes report pushClosed.
	q.push(mk(0))
	q.close()
	if st := q.push(mk(0)); st != pushClosed {
		t.Fatalf("push after close: want pushClosed, got %v", st)
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("queued job must still pop after close")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("empty closed queue must report ok=false")
	}
}

func TestClassQueueEvictExpired(t *testing.T) {
	q := newClassQueue([numClasses]int{4, 4, 4})
	now := time.Now()
	dead := &job{class: 1, expires: now.Add(-time.Millisecond)}
	live := &job{class: 1, expires: now.Add(time.Hour)}
	nodeadline := &job{class: 1}
	for _, j := range []*job{dead, live, nodeadline} {
		q.push(j)
	}
	ev := q.evictExpired(now, false)
	if len(ev) != 1 || ev[0] != dead {
		t.Fatalf("evictExpired: want exactly the dead job, got %d jobs", len(ev))
	}
	if q.len() != 2 {
		t.Fatalf("len after evict = %d, want 2", q.len())
	}
	// force evicts every deadline-carrying job, never the deadline-free one.
	ev = q.evictExpired(now, true)
	if len(ev) != 1 || ev[0] != live {
		t.Fatalf("force evict: want the live deadline job, got %d jobs", len(ev))
	}
	j, ok := q.pop()
	if !ok || j != nodeadline {
		t.Fatal("deadline-free job must survive every sweep")
	}
}

// TestBatchFloodCannotShedInteractive is the tentpole isolation property:
// a batch flood saturating its own lane can never consume interactive
// admission capacity.
func TestBatchFloodCannotShedInteractive(t *testing.T) {
	gate := make(chan struct{})
	parked := make(chan struct{})
	var once, parkOnce sync.Once
	s := New(Config{
		Workers:      1,
		QueueDepth:   4,
		CacheSize:    -1,
		DisableDedup: true,
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				parkOnce.Do(func() { close(parked) })
				<-gate // wedge the lone worker until the test releases it
			}
			return false
		},
	})

	var wg sync.WaitGroup
	launch := func(p Priority, n int, results chan<- error) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := s.Submit(context.Background(), Request{Problem: easyProblem(), Priority: p})
				results <- err
			}()
		}
	}

	// One job occupies the worker (blocked on the gate), then the batch
	// flood: far more than the lane bound, so sheds are guaranteed.
	batchRes := make(chan error, 16)
	launch(PriorityBatch, 16, batchRes)
	// The worker must hold a batch job before interactive joins: a worker
	// still idle would dequeue an interactive job first (strict priority)
	// and leave that lane one short.
	<-parked
	// Wait until the batch lane is actually full before interactive joins.
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.lenClass(1) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("batch lane never filled")
		}
		time.Sleep(time.Millisecond)
	}
	interRes := make(chan error, 4)
	launch(PriorityInteractive, 4, interRes)
	// Interactive lane bound is 4 and exactly 4 were submitted: all admit.
	for s.queue.lenClass(0) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("interactive lane stuck at %d/4 while batch flooded", s.queue.lenClass(0))
		}
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(gate) })
	wg.Wait()

	for i := 0; i < 4; i++ {
		if err := <-interRes; err != nil {
			t.Fatalf("interactive request shed during batch flood: %v", err)
		}
	}
	shed := 0
	for i := 0; i < 16; i++ {
		err := <-batchRes
		if err == nil {
			continue
		}
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("batch failure is not a typed shed: %v", err)
		}
		if oe.Class != PriorityBatch || oe.Reason != ShedQueueFull {
			t.Fatalf("shed carries class=%q reason=%q, want batch/queue_full", oe.Class, oe.Reason)
		}
		shed++
	}
	if shed == 0 {
		t.Fatal("flooding 16 requests into a 4-deep lane shed nothing")
	}
	mustDrain(t, s)
}

// --- Retry-after pricing --------------------------------------------------

// TestRetryAfterMonotonic pins the pricing contract: non-decreasing in
// queue depth, never below the 1ms floor (cold or zero EWMA included), and
// capped so one pathological latency observation cannot price callers out
// for hours.
func TestRetryAfterMonotonic(t *testing.T) {
	cases := []struct {
		name    string
		observe []float64 // latency observations seeded into the EWMA (ns)
	}{
		{"cold EWMA", nil},
		{"zero EWMA", []float64{0}},
		{"typical", []float64{float64(5 * time.Millisecond)}},
		{"pathological", []float64{float64(3 * time.Hour)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{Workers: 2, CacheSize: -1})
			defer mustDrain(t, s)
			for _, v := range c.observe {
				s.latency.Observe(v)
			}
			prev := time.Duration(-1)
			for _, depth := range []int{-1, 0, 1, 2, 5, 64, 1 << 20} {
				ra := s.retryAfter(depth)
				if ra < time.Millisecond {
					t.Fatalf("retryAfter(%d) = %v, below the 1ms floor", depth, ra)
				}
				if ra > maxRetryAfter {
					t.Fatalf("retryAfter(%d) = %v, above the %v cap", depth, ra, maxRetryAfter)
				}
				if ra < prev {
					t.Fatalf("retryAfter(%d) = %v < retryAfter at smaller depth %v: not monotone", depth, ra, prev)
				}
				prev = ra
			}
		})
	}
}

// --- Deadline-aware queueing ----------------------------------------------

// TestExpiredInQueueTypedAtDequeue is the doomed-work regression test (run
// under -race by `make overloadsoak`): a job whose budget died in queue is
// short-circuited with the typed error before any solver step, and the
// counter ledger still balances.
func TestExpiredInQueueTypedAtDequeue(t *testing.T) {
	release := make(chan struct{})
	var gateOnce sync.Once
	var dequeues atomic.Int64
	s := New(Config{
		Workers:      1,
		QueueDepth:   4,
		CacheSize:    -1,
		DisableDedup: true,
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				if dequeues.Add(1) == 1 {
					<-release // first job wedges the worker past the budget
				}
			}
			return false
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Submit(context.Background(), Request{Problem: easyProblem()})
	}()
	for s.QueueDepth() == 0 && dequeues.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var resp *Response
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err = s.Submit(context.Background(), Request{Problem: tightProblem(t), Timeout: 5 * time.Millisecond})
	}()
	for s.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the 5ms budget die in queue
	gateOnce.Do(func() { close(release) })
	wg.Wait()
	mustDrain(t, s)

	if !errors.Is(err, ErrExpiredInQueue) {
		t.Fatalf("want ErrExpiredInQueue, got %v", err)
	}
	if !errors.Is(err, telamalloc.ErrBudget) {
		t.Fatalf("expired-in-queue error must still wrap ErrBudget, got %v", err)
	}
	if !strings.Contains(err.Error(), "queue") {
		t.Fatalf("error must say the budget died in queue: %v", err)
	}
	if resp == nil || resp.Outcome != OutcomeFailed {
		t.Fatalf("want OutcomeFailed response, got %+v", resp)
	}
	c := s.Snapshot()
	if c.ExpiredInQueue != 1 {
		t.Fatalf("ExpiredInQueue = %d, want 1", c.ExpiredInQueue)
	}
	accounted := c.Shed + c.RejectedDraining + c.Cancelled + c.Solved + c.Degraded + c.Failed
	if accounted != c.Submitted {
		t.Fatalf("ledger does not balance: submitted %d, accounted %d (%+v)", c.Submitted, accounted, c)
	}
}

// TestExpireSweepEvictsDoomed exercises eager eviction: when a push finds
// the lane full, queued jobs past their deadlines are evicted (settled
// with the typed verdict) to make room for live work, deterministically
// forced through the server:expire starve point.
func TestExpireSweepEvictsDoomed(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	var wedged, starving atomic.Bool
	s := New(Config{
		Workers:      1,
		QueueDepth:   2,
		CacheSize:    -1,
		DisableDedup: true,
		Hook: func(point string) bool {
			switch point {
			case faultinject.PointServerDequeue:
				wedged.Store(true)
				<-gate
			case faultinject.PointServerExpire:
				return starving.Load()
			}
			return false
		},
	})

	type result struct {
		resp *Response
		err  error
	}
	results := make(chan result, 4)
	submit := func(timeout time.Duration) {
		go func() {
			r, e := s.Submit(context.Background(), Request{Problem: easyProblem(), Timeout: timeout})
			results <- result{r, e}
		}()
	}
	// One job wedges the worker; then exactly two more fill the 2-deep
	// batch lane, both carrying budgets (so the forced sweep may evict them).
	submit(0)
	deadline := time.Now().Add(5 * time.Second)
	for !wedged.Load() {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedge job")
		}
		time.Sleep(time.Millisecond)
	}
	submit(time.Hour)
	submit(time.Hour)
	for s.queue.lenClass(1) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("lane stuck at %d/2", s.queue.lenClass(1))
		}
		time.Sleep(time.Millisecond)
	}
	// Lane full. Arm the forced sweep and push one more: the sweep evicts
	// both queued jobs, and the newcomer takes a freed slot.
	starving.Store(true)
	submit(time.Hour)
	evicted := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if !errors.Is(r.err, ErrExpiredInQueue) {
			t.Fatalf("evicted job: want ErrExpiredInQueue, got %v", r.err)
		}
		if r.resp == nil || r.resp.Outcome != OutcomeFailed {
			t.Fatalf("evicted job response: %+v", r.resp)
		}
		evicted++
	}
	starving.Store(false)
	gateOnce.Do(func() { close(gate) })
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("surviving request failed: %v", r.err)
		}
	}
	mustDrain(t, s)
	c := s.Snapshot()
	if c.ExpiredEvicted != int64(evicted) {
		t.Fatalf("ExpiredEvicted = %d, want %d", c.ExpiredEvicted, evicted)
	}
	accounted := c.Shed + c.RejectedDraining + c.Cancelled + c.Solved + c.Degraded + c.Failed
	if accounted != c.Submitted {
		t.Fatalf("ledger does not balance after evictions: %+v", c)
	}
}

// --- Per-tenant fairness --------------------------------------------------

func TestTenantRateShed(t *testing.T) {
	s := New(Config{
		Workers:   2,
		CacheSize: -1, DisableDedup: true,
		Tenant: TenantConfig{RPS: 0.001, Burst: 2}, // ~one token per 17min: no refill mid-test
	})
	defer mustDrain(t, s)

	sub := func(tenant string) error {
		_, err := s.Submit(context.Background(), Request{Problem: easyProblem(), Tenant: tenant})
		return err
	}
	if err := sub("hog"); err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	if err := sub("hog"); err != nil {
		t.Fatalf("second request within burst: %v", err)
	}
	err := sub("hog")
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-burst request: want typed OverloadError, got %v", err)
	}
	if oe.Reason != ShedTenantRate || oe.Tenant != "hog" {
		t.Fatalf("shed reason/tenant = %q/%q, want tenant_rate/hog", oe.Reason, oe.Tenant)
	}
	if oe.RetryAfter < time.Millisecond {
		t.Fatalf("tenant shed retry-after %v below floor", oe.RetryAfter)
	}
	// Another tenant and the anonymous tenant are unaffected: fairness is
	// per-tenant, not global.
	if err := sub("bystander"); err != nil {
		t.Fatalf("bystander tenant throttled by the hog: %v", err)
	}
	if err := sub(""); err != nil {
		t.Fatalf("anonymous request throttled: %v", err)
	}
	c := s.Snapshot()
	if c.TenantShed != 1 {
		t.Fatalf("TenantShed = %d, want 1", c.TenantShed)
	}
}

func TestTenantShareShed(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	s := New(Config{
		Workers:    1,
		QueueDepth: 8,
		CacheSize:  -1, DisableDedup: true,
		// Capacity = 3 lanes × 8 + 1 worker = 25; share 0.08 → max 2 in flight.
		Tenant: TenantConfig{MaxShare: 0.08},
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				<-gate
			}
			return false
		},
	})

	errs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Submit(context.Background(), Request{Problem: easyProblem(), Tenant: "greedy"})
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.tenants.inflight("greedy") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("tenant in-flight stuck at %d", s.tenants.inflight("greedy"))
		}
		time.Sleep(time.Millisecond)
	}
	_, err := s.Submit(context.Background(), Request{Problem: easyProblem(), Tenant: "greedy"})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedTenantShare {
		t.Fatalf("over-share request: want tenant_share shed, got %v", err)
	}
	gateOnce.Do(func() { close(gate) })
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("in-share request failed: %v", err)
		}
	}
	mustDrain(t, s)
	// The release path must return every slot: after drain the tenant holds
	// nothing in flight.
	if got := s.tenants.inflight("greedy"); got != 0 {
		t.Fatalf("in-flight slots leaked: %d held after drain", got)
	}
}

func TestTenantStarvePointForcesShed(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Point: faultinject.PointServerTenant, After: 1, Kind: faultinject.Starve})
	s := New(Config{
		Workers: 1, CacheSize: -1, DisableDedup: true,
		Tenant: TenantConfig{RPS: 1000},
		Hook:   inj.Hook,
	})
	defer mustDrain(t, s)
	_, err := s.Submit(context.Background(), Request{Problem: easyProblem(), Tenant: "t"})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedTenantRate {
		t.Fatalf("starved tenant admission: want tenant_rate shed, got %v", err)
	}
}

// --- Brownout controller --------------------------------------------------

// TestBrownoutHysteresis drives the controller directly with a manual
// clock: degradation needs StepUpAfter consecutive hot windows, recovery
// needs StepDownAfter consecutive cool ones, and the deadband in between
// resets both streaks.
func TestBrownoutHysteresis(t *testing.T) {
	b := newBrownout(BrownoutConfig{
		Target: 10 * time.Millisecond, StepUpAfter: 3, StepDownAfter: 2, LowWater: 0.5,
	})
	now := time.Now()
	tick := func(wait time.Duration) bool {
		if wait >= 0 {
			b.observe(wait)
		}
		_, changed := b.evaluate(now, false)
		return changed
	}

	hot := 50 * time.Millisecond // above target
	warm := 7 * time.Millisecond // deadband: between low-water (5ms) and target
	cool := 1 * time.Millisecond // below low-water

	// Two hot windows are not enough; the third degrades.
	if tick(hot) || tick(hot) {
		t.Fatal("degraded before StepUpAfter consecutive hot windows")
	}
	if !tick(hot) || b.currentLevel() != 1 {
		t.Fatalf("third hot window must degrade to level 1, at %d", b.currentLevel())
	}

	// A deadband window resets the hot streak: two more hot windows still
	// don't degrade further; it takes three again.
	tick(hot)
	tick(hot)
	if tick(warm) {
		t.Fatal("deadband window must not transition")
	}
	if tick(hot) || tick(hot) {
		t.Fatal("hot streak must restart after a deadband window")
	}
	if !tick(hot) || b.currentLevel() != brownoutNoSearch {
		t.Fatalf("want level %d, at %d", brownoutNoSearch, b.currentLevel())
	}

	// Recovery: one cool window is not enough; the second steps down. An
	// empty window (idle server) counts as cool too.
	if tick(cool) {
		t.Fatal("recovered before StepDownAfter consecutive cool windows")
	}
	if !tick(-1) || b.currentLevel() != 1 {
		t.Fatalf("second cool (empty) window must recover to level 1, at %d", b.currentLevel())
	}
	if tick(cool) {
		t.Fatal("cool streak must reset after a transition")
	}
	if !tick(cool) || b.currentLevel() != 0 {
		t.Fatalf("want full recovery to level 0, at %d", b.currentLevel())
	}
	// At the floor, cool windows do nothing.
	if tick(cool) || tick(cool) || b.currentLevel() != 0 {
		t.Fatal("level must not drop below 0")
	}

	// The ladder tops out at brownoutMaxLevel.
	for i := 0; i < 20; i++ {
		tick(hot)
	}
	if b.currentLevel() != brownoutMaxLevel {
		t.Fatalf("level = %d, want cap %d", b.currentLevel(), brownoutMaxLevel)
	}
}

// TestBrownoutLadderApplication pins what each level does to a request:
// level 2 drops search for batch (degraded answer, marked) but never for
// interactive; levels 1+ shrink the step pot (marked even when still
// solved); level 0 marks nothing.
func TestBrownoutLadderApplication(t *testing.T) {
	s := New(Config{
		Workers: 2, CacheSize: -1, DisableDedup: true,
		MaxSteps: 400000,
		Brownout: BrownoutConfig{Target: time.Hour, Interval: time.Hour}, // enabled, never self-triggers
	})
	defer mustDrain(t, s)
	tight := tightProblem(t)

	// Level 0: full service, no markers, the search stage wins.
	resp, err := s.Submit(context.Background(), Request{Problem: tight})
	if err != nil || resp.Outcome != OutcomeSolved {
		t.Fatalf("level 0 tight solve: %+v %v", resp, err)
	}
	if resp.Winner != "search" {
		t.Fatalf("tight problem is meant to need search; winner = %q", resp.Winner)
	}
	if resp.DegradedByBrownout {
		t.Fatal("idle controller must never mark responses")
	}
	baseline := string(resp.CanonicalJSON())

	// Level 2, batch: search is dropped from the ladder — some other stage
	// must settle the request, and the verdict is marked.
	s.brown.level.Store(brownoutNoSearch)
	resp, err = s.Submit(context.Background(), Request{Problem: tight, Priority: PriorityBatch})
	if err != nil {
		t.Fatalf("level 2 batch tight: %v", err)
	}
	if resp.Winner == "search" {
		t.Fatal("level-2 batch request still ran the search stage")
	}
	if !resp.DegradedByBrownout {
		t.Fatal("level-2 batch verdict must carry the brownout marker")
	}

	// Level 2, interactive: keeps the full ladder — still solved by search.
	// (The shrunk pot marks the response; the answer bytes must match the
	// un-browned solve, since the search found the same packing.)
	resp, err = s.Submit(context.Background(), Request{Problem: tight, Priority: PriorityInteractive})
	if err != nil || resp.Outcome != OutcomeSolved {
		t.Fatalf("level 2 interactive tight: want solved, got %+v %v", resp, err)
	}
	if !resp.DegradedByBrownout {
		t.Fatal("shrunk-pot solve must carry the marker")
	}
	if got := string(resp.CanonicalJSON()); got != baseline {
		t.Fatalf("interactive answer changed under brownout:\n  level0: %s\n  level2: %s", baseline, got)
	}

	// Back to level 0: markers stop.
	s.brown.level.Store(brownoutOff)
	resp, err = s.Submit(context.Background(), Request{Problem: tight})
	if err != nil || resp.DegradedByBrownout {
		t.Fatalf("recovered controller still marking: %+v %v", resp, err)
	}
	c := s.Snapshot()
	if c.BrownoutDegraded != 2 {
		t.Fatalf("BrownoutDegraded = %d, want 2", c.BrownoutDegraded)
	}
}

// TestBrownoutTickTransitions exercises the server-side tick path: forced
// hot ticks (server:brownout starve) degrade, idle ticks recover, and both
// directions land in the counters.
func TestBrownoutTickTransitions(t *testing.T) {
	forceHot := atomic.Bool{}
	s := New(Config{
		Workers: 1, CacheSize: -1,
		Brownout: BrownoutConfig{Target: 10 * time.Millisecond, Interval: time.Hour, StepUpAfter: 2, StepDownAfter: 2},
		Hook: func(point string) bool {
			return point == faultinject.PointServerBrownout && forceHot.Load()
		},
	})
	defer mustDrain(t, s)

	forceHot.Store(true)
	now := time.Now()
	for i := 0; i < 4 && s.BrownoutLevel() == 0; i++ {
		s.brownoutTick(now)
	}
	if s.BrownoutLevel() == 0 {
		t.Fatal("forced-hot ticks never degraded")
	}
	forceHot.Store(false)
	for i := 0; i < 20 && s.BrownoutLevel() > 0; i++ {
		s.brownoutTick(now)
	}
	if s.BrownoutLevel() != 0 {
		t.Fatalf("idle ticks never recovered: level %d", s.BrownoutLevel())
	}
	c := s.Snapshot()
	if c.BrownoutDegrades < 1 || c.BrownoutRecovers < 1 {
		t.Fatalf("transitions not counted: degrades %d recovers %d", c.BrownoutDegrades, c.BrownoutRecovers)
	}
}

// --- No-overload byte identity --------------------------------------------

// TestNoOverloadByteIdentical is the acceptance criterion: with every
// overload-control feature configured but no overload signal firing, every
// response's canonical bytes are identical to a plain server's.
func TestNoOverloadByteIdentical(t *testing.T) {
	plain := New(Config{Workers: 2, CacheSize: -1, DisableDedup: true, MaxSteps: 400000})
	defer mustDrain(t, plain)
	featured := New(Config{
		Workers: 2, CacheSize: -1, DisableDedup: true, MaxSteps: 400000,
		ClassDepth: map[Priority]int{PriorityInteractive: 32, PriorityBackground: 8},
		Tenant:     TenantConfig{RPS: 1e6, MaxShare: 0.9},
		Brownout:   BrownoutConfig{Target: time.Hour, Interval: time.Hour},
	})
	defer mustDrain(t, featured)

	corpus := []struct {
		name string
		p    Problem
	}{
		{"easy", easyProblem()},
		{"tight", tightProblem(t)},
		{"infeasible", infeasibleProblem()},
	}
	for _, c := range corpus {
		for _, prio := range []Priority{"", PriorityInteractive, PriorityBackground} {
			want, werr := plain.Submit(context.Background(), Request{Problem: c.p})
			got, gerr := featured.Submit(context.Background(), Request{Problem: c.p, Priority: prio, Tenant: "team-a"})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s/%s: error divergence: plain %v, featured %v", c.name, prio, werr, gerr)
			}
			if want == nil || got == nil {
				if want != got {
					t.Fatalf("%s/%s: response presence diverged", c.name, prio)
				}
				continue
			}
			if w, g := string(want.CanonicalJSON()), string(got.CanonicalJSON()); w != g {
				t.Fatalf("%s/%s: canonical bytes diverged\n plain:    %s\n featured: %s", c.name, prio, w, g)
			}
			if got.DegradedByBrownout {
				t.Fatalf("%s/%s: idle brownout marked a response", c.name, prio)
			}
		}
	}
	if lvl := featured.BrownoutLevel(); lvl != 0 {
		t.Fatalf("brownout engaged without overload: level %d", lvl)
	}
}

// --- Sustained-overload acceptance soak -----------------------------------

// TestOverloadSoak is the `make overloadsoak` acceptance test (run under
// -race): a sustained mixed-class, mixed-tenant flood against a slowed
// server. It asserts every request reaches exactly one terminal outcome,
// no solver steps are spent on expired-in-queue jobs, interactive latency
// stays bounded and interactive is never shed, the counter ledger
// balances, and the brownout controller both engages and disengages.
func TestOverloadSoak(t *testing.T) {
	s := New(Config{
		Workers:      2,
		CacheSize:    -1,
		DisableDedup: true,
		MaxSteps:     50000,
		// Background's lane bound (2) is below its offered concurrency (4
		// submitters), so queue-full sheds are guaranteed; interactive's
		// bound (16) is far above its concurrency (2), so it never sheds.
		ClassDepth: map[Priority]int{
			PriorityInteractive: 16,
			PriorityBatch:       8,
			PriorityBackground:  2,
		},
		Tenant: TenantConfig{RPS: 200, Burst: 20, MaxShare: 0.5},
		// Interval one hour: the soak drives ticks manually below, so the
		// controller's cadence is deterministic relative to the flood.
		Brownout: BrownoutConfig{Target: 2 * time.Millisecond, Interval: time.Hour, StepUpAfter: 2, StepDownAfter: 2},
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				time.Sleep(2 * time.Millisecond) // slow service: queues build
			}
			return false
		},
	})

	type outcome struct {
		class   terminalClass
		prio    Priority
		budget  time.Duration
		wait    time.Duration
		latency time.Duration
		browned bool
	}
	var mu sync.Mutex
	var outcomes []outcome
	record := func(prio Priority, budget time.Duration, started time.Time, resp *Response, err error) {
		o := outcome{class: classify(t, resp, err), prio: prio, budget: budget, latency: time.Since(started)}
		if resp != nil {
			o.wait = resp.QueueWait
			o.browned = resp.DegradedByBrownout
		}
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	}

	// Manual brownout ticks while the flood runs.
	tickStop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for {
			select {
			case <-tickStop:
				return
			default:
				s.brownoutTick(time.Now())
				time.Sleep(3 * time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	launch := func(goroutines, perG int, prio Priority, budget time.Duration, tenant func(g int) string) {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					started := time.Now()
					resp, err := s.Submit(context.Background(), Request{
						Problem:  easyProblem(),
						Priority: prio,
						Timeout:  budget,
						Tenant:   tenant(g),
					})
					record(prio, budget, started, resp, err)
				}
			}(g)
		}
	}
	noTenant := func(int) string { return "" }
	launch(2, 40, PriorityInteractive, 500*time.Millisecond, noTenant)
	launch(8, 25, PriorityBatch, 25*time.Millisecond, func(g int) string {
		return []string{"t0", "t1", "t2", "t3"}[g%4]
	})
	launch(4, 25, PriorityBackground, 10*time.Millisecond, noTenant)
	wg.Wait()
	close(tickStop)
	<-tickDone

	c := s.Snapshot()
	if c.BrownoutDegrades < 1 {
		t.Fatalf("brownout never engaged under sustained overload (degrades=0): %+v", c)
	}

	// Recovery: idle ticks must walk the ladder back to level 0.
	for i := 0; i < 50 && s.BrownoutLevel() > 0; i++ {
		s.brownoutTick(time.Now())
	}
	if s.BrownoutLevel() != 0 {
		t.Fatalf("brownout never disengaged: level %d", s.BrownoutLevel())
	}

	// After recovery, a fresh request is served unmarked with the canonical
	// full-service bytes.
	resp, err := s.Submit(context.Background(), Request{Problem: easyProblem()})
	if err != nil || resp.Outcome != OutcomeSolved || resp.DegradedByBrownout {
		t.Fatalf("post-recovery solve degraded: %+v %v", resp, err)
	}
	mustDrain(t, s)
	c = s.Snapshot()
	if c.BrownoutRecovers < 1 {
		t.Fatalf("recovery transitions not counted: %+v", c)
	}

	// Exactly-once: every submission recorded one terminal outcome, and the
	// ledger balances.
	wantTotal := 2*40 + 8*25 + 4*25 // the post-recovery probe is not recorded
	if len(outcomes) != wantTotal {
		t.Fatalf("recorded %d outcomes, want %d", len(outcomes), wantTotal)
	}
	accounted := c.Shed + c.RejectedDraining + c.Cancelled + c.Solved + c.Degraded + c.Failed
	if accounted != c.Submitted {
		t.Fatalf("ledger does not balance: submitted %d accounted %d (%+v)", c.Submitted, accounted, c)
	}
	if c.Submitted != c.Admitted+c.Shed {
		t.Fatalf("admission ledger: submitted %d != admitted %d + shed %d", c.Submitted, c.Admitted, c.Shed)
	}

	var interLat []float64
	for _, o := range outcomes {
		// Zero doomed jobs solved: a served verdict whose queue wait
		// already consumed the whole budget would mean the worker solved
		// dead work.
		if (o.class == classSolved || o.class == classDegraded) && o.budget > 0 && o.wait >= o.budget {
			t.Fatalf("doomed job was solved: waited %v of a %v budget", o.wait, o.budget)
		}
		if o.prio == PriorityInteractive {
			if o.class == classShed {
				t.Fatal("interactive request shed during a batch/background flood")
			}
			interLat = append(interLat, float64(o.latency))
		}
	}
	if p99 := time.Duration(stats.Percentile(interLat, 99)); p99 > 2*time.Second {
		t.Fatalf("interactive p99 = %v, want bounded under overload", p99)
	}

	// The flood must actually have exercised the machinery the soak exists
	// to prove: expiries (lazy or eager) and per-tenant sheds.
	if c.ExpiredInQueue+c.ExpiredEvicted == 0 {
		t.Fatal("no queued budget ever expired — the soak did not overload the queue")
	}
	if c.Shed == 0 {
		t.Fatal("nothing was shed — the soak did not overload admission")
	}
}

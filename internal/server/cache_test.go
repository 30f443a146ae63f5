package server

// Tests for the cross-request reuse layer: solution-cache hits, decision-
// trace hint replay, singleflight deduplication — and the bugfix sweep's
// regressions (settle-ledger balance under cancellation at the dequeue
// window, half-open breaker probes that get cancelled mid-run).

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/workload"
)

// TestSubmitCacheHitByteIdentical: a repeated submission is served from the
// cache without re-queueing, and its canonical bytes are identical to the
// cold solve's.
func TestSubmitCacheHitByteIdentical(t *testing.T) {
	s := New(Config{Workers: 1, MaxSteps: 200000})
	defer mustDrain(t, s)
	p := tightProblem(t)

	cold, err := s.Submit(context.Background(), Request{Problem: p})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if cold.CacheHit || cold.Winner != telamalloc.StageSearch {
		t.Fatalf("cold response %+v, want a search win without a cache hit", cold)
	}
	if cold.Trace == nil || cold.Trace.Winner != telamalloc.StageSearch {
		t.Fatalf("cold response trace %+v, want the winning stage's trace", cold.Trace)
	}

	// A reordered copy of the same problem must hit too: the fingerprint is
	// order-invariant and the replayed offsets follow the new order.
	q := Problem{Memory: p.Memory, Buffers: append([]telamalloc.Buffer(nil), p.Buffers...)}
	q.Buffers[0], q.Buffers[len(q.Buffers)-1] = q.Buffers[len(q.Buffers)-1], q.Buffers[0]
	warmQ, err := s.Submit(context.Background(), Request{Problem: q})
	if err != nil {
		t.Fatalf("reordered warm submit: %v", err)
	}
	if !warmQ.CacheHit {
		t.Errorf("reordered copy missed the cache")
	}
	if verr := (telamalloc.Solution{Offsets: warmQ.Offsets}).Validate(q); verr != nil {
		t.Errorf("replayed packing invalid for the reordered copy: %v", verr)
	}

	warm, err := s.Submit(context.Background(), Request{Problem: p})
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	if !warm.CacheHit {
		t.Errorf("second identical submission was not a cache hit")
	}
	if !bytes.Equal(warm.CanonicalJSON(), cold.CanonicalJSON()) {
		t.Errorf("warm bytes differ from cold:\n cold %s\n warm %s", cold.CanonicalJSON(), warm.CanonicalJSON())
	}

	c := s.Snapshot()
	if c.CacheHits != 2 || c.CacheInsertions != 1 {
		t.Errorf("counters %+v, want 2 cache hits from 1 insertion", c)
	}
	if c.Admitted != 1 {
		t.Errorf("admitted %d, want 1 — cache hits must not re-queue", c.Admitted)
	}
}

// TestSubmitWarmSpeedup is the repeated-workload acceptance criterion: warm
// submissions at least 5x faster than the cold solve, byte-identical output.
func TestSubmitWarmSpeedup(t *testing.T) {
	s := New(Config{Workers: 1, MaxSteps: 1 << 20})
	defer mustDrain(t, s)
	p := tightProblem(t)

	start := time.Now()
	cold, err := s.Submit(context.Background(), Request{Problem: p})
	coldTime := time.Since(start)
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}

	warmBest := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start = time.Now()
		warm, werr := s.Submit(context.Background(), Request{Problem: p})
		elapsed := time.Since(start)
		if werr != nil {
			t.Fatalf("warm submit %d: %v", i, werr)
		}
		if !warm.CacheHit {
			t.Fatalf("warm submit %d missed the cache", i)
		}
		if !bytes.Equal(warm.CanonicalJSON(), cold.CanonicalJSON()) {
			t.Fatalf("warm submit %d bytes differ from cold", i)
		}
		if elapsed < warmBest {
			warmBest = elapsed
		}
	}
	if coldTime < 5*warmBest {
		t.Errorf("cold %v vs best warm %v: want warm at least 5x faster", coldTime, warmBest)
	}
}

// TestSubmitDedupSharesOneSolve: concurrent identical requests collapse to
// one queued solve; every follower gets the leader's bytes.
func TestSubmitDedupSharesOneSolve(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Workers: 1,
		// Cache off so followers exercise the flight path, not the cache.
		CacheSize: -1,
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				<-release
			}
			return false
		},
	})
	defer mustDrain(t, s)
	p := easyProblem()

	const clients = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	var responses []*Response
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Problem: p})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			mu.Lock()
			responses = append(responses, resp)
			mu.Unlock()
		}()
	}
	// Let every client reach the flight map while the worker is parked,
	// then let the single solve run.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if len(responses) != clients {
		t.Fatalf("%d responses, want %d", len(responses), clients)
	}
	deduped := 0
	for _, r := range responses {
		if r.Deduped {
			deduped++
		}
		if !bytes.Equal(r.CanonicalJSON(), responses[0].CanonicalJSON()) {
			t.Errorf("shared responses disagree")
		}
		if verr := (telamalloc.Solution{Offsets: r.Offsets}).Validate(p); verr != nil {
			t.Errorf("shared packing invalid: %v", verr)
		}
	}
	c := s.Snapshot()
	if c.Admitted != 1 {
		t.Errorf("admitted %d, want 1 — the flood must share one solve", c.Admitted)
	}
	if deduped != clients-1 || c.DedupShared != int64(clients-1) {
		t.Errorf("deduped %d (counter %d), want %d followers", deduped, c.DedupShared, clients-1)
	}
	if c.Solved != clients {
		t.Errorf("solved %d, want %d — every caller still gets a terminal outcome", c.Solved, clients)
	}
}

// TestSubmitNearMissHintReplay: the same buffers under a different capacity
// miss the cache but warm-start through the shape index — the pipeline
// replays the stored trace instead of searching.
func TestSubmitNearMissHintReplay(t *testing.T) {
	s := New(Config{Workers: 1, MaxSteps: 200000})
	defer mustDrain(t, s)
	p := tightProblem(t)

	cold, err := s.Submit(context.Background(), Request{Problem: p})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}

	wider := p
	wider.Memory = p.Memory + 64 // same shape, new full fingerprint
	warm, err := s.Submit(context.Background(), Request{Problem: wider})
	if err != nil {
		t.Fatalf("near-miss submit: %v", err)
	}
	if warm.CacheHit {
		t.Fatalf("capacity change must not be an exact cache hit")
	}
	if !warm.HintReplayed {
		t.Errorf("near miss did not replay the stored trace: %+v", warm)
	}
	if warm.Winner != cold.Winner {
		t.Errorf("replay winner %q, want the trace's %q", warm.Winner, cold.Winner)
	}
	if verr := (telamalloc.Solution{Offsets: warm.Offsets}).Validate(wider); verr != nil {
		t.Errorf("replayed packing invalid at the new capacity: %v", verr)
	}
	c := s.Snapshot()
	if c.CacheNearHits != 1 || c.HintReplays != 1 {
		t.Errorf("counters %+v, want 1 near hit and 1 hint replay", c)
	}
}

// TestSubmitCancelAtDequeueLedger is the settle-path regression: callers
// cancel while the worker is stalled inside the dequeue window — between
// delivery and the CAS settle — and the counter ledger must still balance,
// with exactly one terminal outcome per submission.
func TestSubmitCancelAtDequeueLedger(t *testing.T) {
	const clients = 8
	faults := make([]faultinject.Fault, clients)
	for i := range faults {
		// Every dequeue stalls, so each job sits in the delivery window
		// while its caller cancels.
		faults[i] = faultinject.Fault{
			Point:    faultinject.PointServerDequeue,
			After:    int64(i + 1),
			Kind:     faultinject.Stall,
			StallFor: 30 * time.Millisecond,
		}
	}
	inj := faultinject.New(faults...)
	s := New(Config{
		Workers:    2,
		QueueDepth: clients,
		// Identical requests must each own a job for the window to exist.
		DisableDedup: true,
		CacheSize:    -1,
		Hook:         inj.Hook,
	})
	p := easyProblem()

	var wg sync.WaitGroup
	var mu sync.Mutex
	tally := map[terminalClass]int{}
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			// Spread cancellations across the stall window so both sides
			// of the settle race run under -race.
			time.AfterFunc(time.Duration(5+4*i)*time.Millisecond, cancel)
			defer cancel()
			resp, err := s.Submit(ctx, Request{Problem: p})
			class := classify(t, resp, err)
			mu.Lock()
			tally[class]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	mustDrain(t, s)

	total := 0
	for _, n := range tally {
		total += n
	}
	if total != clients {
		t.Fatalf("outcomes %v sum to %d, want %d", tally, total, clients)
	}
	c := s.Snapshot()
	accounted := c.Shed + c.RejectedDraining + c.Cancelled + c.Solved + c.Degraded + c.Failed
	if accounted != c.Submitted || c.Submitted != clients {
		t.Fatalf("counter ledger unbalanced: %+v (accounted %d of %d)", c, accounted, c.Submitted)
	}
	if c.Cancelled != int64(tally[classCancelled]) || c.Solved != int64(tally[classSolved]) {
		t.Errorf("counters %+v disagree with observed outcomes %v", c, tally)
	}
	if tally[classCancelled] == 0 {
		t.Errorf("no caller cancelled inside the dequeue window; the regression window was not exercised")
	}
}

// TestBreakerProbeIgnoresCancelledStage is the half-open probe regression: a
// probe whose stage was cancelled mid-run (here: the caller gave up) carries
// no health signal. It must neither close the breaker as a success nor count
// as a failure — and the probe slot must be released for the next request.
func TestBreakerProbeIgnoresCancelledStage(t *testing.T) {
	p := tightProblem(t)
	inj := faultinject.New(
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 1, Kind: faultinject.Panic},
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 2, Kind: faultinject.Panic},
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 3, Kind: faultinject.Panic},
		// The 4th search entry — the half-open probe — stalls long enough
		// for the caller to cancel while the stage is running.
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 4, Kind: faultinject.Stall, StallFor: 150 * time.Millisecond},
	)
	s := New(Config{
		Workers:   1,
		Breaker:   BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
		CacheSize: -1,
		Hook:      inj.Hook,
	})
	defer mustDrain(t, s)

	// Three injected search panics trip the breaker (spill recovers each).
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), Request{Problem: p, MaxSteps: 100000}); err != nil {
			t.Fatalf("trip request %d: %v", i, err)
		}
	}
	if c := s.Snapshot(); c.BreakerTrips != 1 {
		t.Fatalf("counters %+v, want the breaker tripped", c)
	}
	time.Sleep(80 * time.Millisecond) // past the cooldown: next request probes

	// The probe request: its caller cancels while the search stage stalls.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(40 * time.Millisecond)
		cancel()
	}()
	if _, err := s.Submit(ctx, Request{Problem: p, MaxSteps: 100000}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("probe request err %v, want ErrCancelled", err)
	}
	// Give the cancelled ladder goroutine time to settle its observation.
	time.Sleep(200 * time.Millisecond)
	c := s.Snapshot()
	if c.BreakerProbes != 1 {
		t.Fatalf("counters %+v, want exactly 1 probe so far", c)
	}
	if c.BreakerRecoveries != 0 {
		t.Fatalf("cancelled probe closed the breaker: %+v", c)
	}

	// The slot was released without a verdict: the next request probes
	// again, runs clean (faults exhausted), and closes the breaker.
	resp, err := s.Submit(context.Background(), Request{Problem: p, MaxSteps: 100000})
	if err != nil {
		t.Fatalf("recovery request: %v", err)
	}
	if resp.Winner != telamalloc.StageSearch {
		t.Fatalf("recovery winner %s, want search re-admitted", resp.Winner)
	}
	c = s.Snapshot()
	if c.BreakerProbes != 2 || c.BreakerRecoveries != 1 {
		t.Fatalf("counters %+v, want a second probe and exactly 1 recovery", c)
	}
}

// soakShapes builds structurally distinct solvable problems, so every
// cold/warm byte comparison is within one fingerprint (near-miss hint
// replay across capacities is legitimate but not byte-pinned).
func soakShapes(t *testing.T) []Problem {
	t.Helper()
	ps := []Problem{easyProblem(), tightProblem(t)}
	for i := 2; i < 6; i++ {
		q := fromInternal(workload.NonOverlapping(6+i, int64(i)))
		q.Memory *= 2
		ps = append(ps, q)
	}
	return ps
}

// TestCacheSoak is the reuse layer's -race acceptance soak: concurrent
// clients replaying a fixed workload against a four-worker server. Every
// solved response — cold, cached, deduped, hint-replayed — must be
// byte-identical to the cold reference, and the cache/dedup counters must
// balance with the terminal-outcome ledger after drain.
func TestCacheSoak(t *testing.T) {
	problems := soakShapes(t)

	// Cold references from a reuse-free server.
	reference := make([]*Response, len(problems))
	cold := New(Config{Workers: 1, MaxSteps: 200000, CacheSize: -1, DisableDedup: true})
	for i, p := range problems {
		resp, err := cold.Submit(context.Background(), Request{Problem: p})
		if err != nil {
			t.Fatalf("cold reference %d: %v", i, err)
		}
		reference[i] = resp
	}
	mustDrain(t, cold)

	s := New(Config{
		Workers:    4,
		QueueDepth: 64,
		MaxSteps:   200000,
		CacheSize:  4, // smaller than the distinct-problem count: evictions happen too
	})
	const clients = 8
	const perClient = 15
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := (c + i) % len(problems)
				resp, err := s.Submit(context.Background(), Request{Problem: problems[k]})
				if err != nil {
					t.Errorf("client %d iter %d: %v", c, i, err)
					continue
				}
				if !bytes.Equal(resp.CanonicalJSON(), reference[k].CanonicalJSON()) {
					t.Errorf("client %d iter %d: response bytes differ from the cold solve\n cold %s\n got  %s (cacheHit=%v deduped=%v hintReplayed=%v)",
						c, i, reference[k].CanonicalJSON(), resp.CanonicalJSON(), resp.CacheHit, resp.Deduped, resp.HintReplayed)
				}
			}
		}(c)
	}
	wg.Wait()
	mustDrain(t, s)

	c := s.Snapshot()
	if c.Submitted != clients*perClient {
		t.Fatalf("submitted %d, want %d", c.Submitted, clients*perClient)
	}
	accounted := c.Shed + c.RejectedDraining + c.Cancelled + c.Solved + c.Degraded + c.Failed
	if accounted != c.Submitted {
		t.Fatalf("counter ledger unbalanced: %+v (accounted %d of %d)", c, accounted, c.Submitted)
	}
	// Every submission performed exactly one cache lookup (none were shed
	// before reaching the reuse layer in this workload).
	if c.CacheHits+c.CacheMisses != c.Submitted {
		t.Fatalf("cache lookups %d+%d don't cover %d submissions: %+v", c.CacheHits, c.CacheMisses, c.Submitted, c)
	}
	if c.CacheInsertions-c.CacheEvictions != int64(c.CacheLen) {
		t.Fatalf("cache ledger unbalanced: %+v", c)
	}
	if c.CacheHits == 0 {
		t.Errorf("a repeated workload produced zero cache hits: %+v", c)
	}
	if c.Admitted >= c.Submitted {
		t.Errorf("reuse layer never skipped the queue: admitted %d of %d", c.Admitted, c.Submitted)
	}
	if c.DedupShared > c.Solved {
		t.Errorf("counters %+v: more shared responses than solved ones", c)
	}
}

package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/workload"
)

// fromInternal converts a generated workload to the public problem type.
func fromInternal(q *buffers.Problem) Problem {
	p := Problem{Memory: q.Memory, Name: q.Name}
	for _, b := range q.Buffers {
		p.Buffers = append(p.Buffers, telamalloc.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align})
	}
	return p
}

// easyProblem is solvable by the greedy heuristic.
func easyProblem() Problem {
	p := fromInternal(workload.NonOverlapping(12, 1))
	p.Memory *= 2
	return p
}

// tightProblem defeats both heuristics but the search solves it.
func tightProblem(t *testing.T) Problem {
	t.Helper()
	p := fromInternal(workload.MultiComponent(4, 15, 105, 1))
	if _, err := telamalloc.AllocateGreedy(p); err == nil {
		t.Fatal("fixture drifted: greedy solves the tight problem")
	}
	if _, err := telamalloc.AllocateBestFit(p); err == nil {
		t.Fatal("fixture drifted: best-fit solves the tight problem")
	}
	return p
}

// infeasibleProblem is provably unsatisfiable, so the pipeline degrades.
func infeasibleProblem() Problem {
	return Problem{
		Memory: 4,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
	}
}

// invalidProblem fails validation (zero memory with buffers).
func invalidProblem() Problem {
	return Problem{Memory: 0, Buffers: []telamalloc.Buffer{{Start: 0, End: 1, Size: 1}}}
}

func mustDrain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitSolvesEasy(t *testing.T) {
	s := New(Config{Workers: 2})
	defer mustDrain(t, s)
	p := easyProblem()
	resp, err := s.Submit(context.Background(), Request{Problem: p})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Outcome != OutcomeSolved || resp.Winner != telamalloc.StageGreedy {
		t.Fatalf("outcome %s winner %s, want solved by greedy", resp.Outcome, resp.Winner)
	}
	sol := telamalloc.Solution{Offsets: resp.Offsets}
	if verr := sol.Validate(p); verr != nil {
		t.Fatalf("invalid packing: %v", verr)
	}
	if c := s.Snapshot(); c.Solved != 1 || c.Admitted != 1 {
		t.Errorf("counters %+v, want 1 solved / 1 admitted", c)
	}
}

func TestSubmitDegradesInfeasible(t *testing.T) {
	s := New(Config{Workers: 1})
	defer mustDrain(t, s)
	resp, err := s.Submit(context.Background(), Request{Problem: infeasibleProblem()})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Outcome != OutcomeDegraded || len(resp.Spilled) != 1 {
		t.Fatalf("outcome %s spilled %v, want degraded with one eviction", resp.Outcome, resp.Spilled)
	}
	if resp.LowerBound != 8 || resp.Memory != 4 {
		t.Errorf("evidence lb=%d mem=%d, want 8 > 4", resp.LowerBound, resp.Memory)
	}
}

func TestSubmitFailsInvalidProblem(t *testing.T) {
	s := New(Config{Workers: 1})
	defer mustDrain(t, s)
	resp, err := s.Submit(context.Background(), Request{Problem: invalidProblem()})
	if !errors.Is(err, telamalloc.ErrInvalidProblem) {
		t.Fatalf("err %v, want ErrInvalidProblem", err)
	}
	if resp == nil || resp.Outcome != OutcomeFailed || resp.Err == "" {
		t.Fatalf("resp %+v, want a structured failed response", resp)
	}
	if c := s.Snapshot(); c.Failed != 1 {
		t.Errorf("counters %+v, want 1 failed", c)
	}
}

// TestSubmitShedsWhenFull: with one worker parked at the dequeue fault point
// and the queue at capacity, further submissions are shed immediately with a
// typed overload error carrying a positive retry-after hint.
func TestSubmitShedsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Workers:    1,
		QueueDepth: 2,
		// The flood is intentionally identical requests; dedup would
		// collapse it to one queued solve and no shedding. This test is
		// about admission control, so dedup is off.
		DisableDedup: true,
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				<-gate
			}
			return false
		},
	})
	p := easyProblem()
	const clients = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sheds []*OverloadError
	served := 0
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Problem: p})
			mu.Lock()
			defer mu.Unlock()
			var ov *OverloadError
			switch {
			case errors.As(err, &ov):
				if !errors.Is(err, ErrOverloaded) {
					t.Error("OverloadError must unwrap ErrOverloaded")
				}
				sheds = append(sheds, ov)
			case err == nil && resp != nil:
				served++
			default:
				t.Errorf("unexpected outcome resp=%v err=%v", resp, err)
			}
		}()
	}
	// Give the submitters time to hit admission; the shed path must not
	// depend on the worker making progress.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()
	mustDrain(t, s)

	// At most 1 in the blocked worker + 2 queued are admitted; the rest shed.
	if served > 3 || served == 0 {
		t.Errorf("served %d, want 1..3 with a 2-deep queue and a parked worker", served)
	}
	if len(sheds) != clients-served {
		t.Errorf("sheds %d + served %d != %d clients", len(sheds), served, clients)
	}
	for _, ov := range sheds {
		if ov.RetryAfter < time.Millisecond {
			t.Errorf("retry-after %v below the 1ms floor", ov.RetryAfter)
		}
	}
	c := s.Snapshot()
	if c.Shed != int64(len(sheds)) || c.Admitted != int64(served) {
		t.Errorf("counters %+v disagree with observed shed=%d served=%d", c, len(sheds), served)
	}
}

func TestSubmitRejectedWhileDraining(t *testing.T) {
	s := New(Config{Workers: 1})
	mustDrain(t, s)
	if _, err := s.Submit(context.Background(), Request{Problem: easyProblem()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err %v, want ErrDraining", err)
	}
	if c := s.Snapshot(); c.RejectedDraining != 1 {
		t.Errorf("counters %+v, want 1 rejected-draining", c)
	}
}

func TestSubmitCallerCancelled(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Workers: 1,
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				<-gate
			}
			return false
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Problem: easyProblem()})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, ErrCancelled) {
		t.Fatalf("err %v, want ErrCancelled", err)
	}
	close(gate)
	mustDrain(t, s)
	if c := s.Snapshot(); c.Cancelled != 1 {
		t.Errorf("counters %+v, want 1 cancelled", c)
	}
}

func TestAdmitHookPanicContained(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Point: faultinject.PointServerAdmit, After: 1, Kind: faultinject.Panic,
	})
	s := New(Config{Workers: 1, Hook: inj.Hook})
	defer mustDrain(t, s)
	resp, err := s.Submit(context.Background(), Request{Problem: easyProblem()})
	if !errors.Is(err, telamalloc.ErrInternal) || resp != nil {
		t.Fatalf("resp=%v err=%v, want contained ErrInternal", resp, err)
	}
	// The fault is one-shot; the service keeps serving.
	resp, err = s.Submit(context.Background(), Request{Problem: easyProblem()})
	if err != nil || resp.Outcome != OutcomeSolved {
		t.Fatalf("post-panic submit resp=%v err=%v, want solved", resp, err)
	}
	if c := s.Snapshot(); c.ContainedPanics != 1 {
		t.Errorf("counters %+v, want 1 contained panic", c)
	}
}

func TestAdmitStarveForcesShed(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Point: faultinject.PointServerAdmit, After: 1, Kind: faultinject.Starve,
	})
	s := New(Config{Workers: 1, Hook: inj.Hook})
	defer mustDrain(t, s)
	if _, err := s.Submit(context.Background(), Request{Problem: easyProblem()}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err %v, want forced shed", err)
	}
}

// TestDrainClean: a drain with a generous deadline finishes without
// force-cancelling anything.
func TestDrainClean(t *testing.T) {
	s := New(Config{Workers: 2})
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), Request{Problem: easyProblem()}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if c := s.Snapshot(); c.ForceCancelled != 0 {
		t.Errorf("clean drain force-cancelled %d requests", c.ForceCancelled)
	}
}

// TestDrainForceCancelsInFlight: a stage stalled past the drain deadline is
// force-cancelled; Drain returns ErrDrainTimeout and still completes within
// the stall bound, not the request's own (unlimited) budget.
func TestDrainForceCancelsInFlight(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Point: "group0", After: 1, Kind: faultinject.Stall, StallFor: 300 * time.Millisecond,
	})
	s := New(Config{Workers: 1, Hook: inj.Hook})
	respCh := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Problem: tightProblem(t), MaxSteps: 1 << 40})
		respCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the worker enter the stalled search
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	drainTime := time.Since(start)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("drain err %v, want ErrDrainTimeout", err)
	}
	if drainTime > 2*time.Second {
		t.Fatalf("forced drain took %v, want bounded by stall + polling stride", drainTime)
	}
	if serr := <-respCh; !errors.Is(serr, ErrCancelled) {
		t.Errorf("in-flight request err %v, want ErrCancelled", serr)
	}
	if c := s.Snapshot(); c.ForceCancelled != 1 {
		t.Errorf("counters %+v, want 1 force-cancelled", c)
	}
}

// TestBreakerTripsSkipsAndRecovers is the acceptance scenario: a stage made
// to fail three times in a row is skipped for the cooldown window and
// re-admitted through a half-open probe that closes the breaker.
func TestBreakerTripsSkipsAndRecovers(t *testing.T) {
	p := tightProblem(t)
	inj := faultinject.New(
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 1, Kind: faultinject.Panic},
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 2, Kind: faultinject.Panic},
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 3, Kind: faultinject.Panic},
	)
	var mu sync.Mutex
	searchEntries := 0
	s := New(Config{
		Workers: 1,
		Breaker: BreakerConfig{Threshold: 3, Cooldown: 150 * time.Millisecond},
		// Every submission repeats the same problem and must actually run
		// the ladder for the breaker to see the injected failures; a cache
		// hit would short-circuit the pipeline.
		CacheSize: -1,
		Hook: func(point string) bool {
			if point == faultinject.StageEntry(telamalloc.StageSearch) {
				mu.Lock()
				searchEntries++
				mu.Unlock()
			}
			return inj.Hook(point)
		},
	})
	defer mustDrain(t, s)
	submit := func() *Response {
		t.Helper()
		resp, err := s.Submit(context.Background(), Request{Problem: p, MaxSteps: 100000})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return resp
	}

	// Three requests, three injected search-stage panics: the spill stage
	// recovers each (full packing, no eviction), and the third failure
	// trips the breaker.
	for i := 0; i < 3; i++ {
		resp := submit()
		if resp.Outcome != OutcomeSolved || resp.Winner != telamalloc.StageSpill {
			t.Fatalf("request %d: outcome %s winner %s, want spill-stage recovery", i, resp.Outcome, resp.Winner)
		}
		if len(resp.SkippedByBreaker) != 0 {
			t.Fatalf("request %d skipped %v before the trip", i, resp.SkippedByBreaker)
		}
	}
	if c := s.Snapshot(); c.BreakerTrips != 1 {
		t.Fatalf("counters %+v, want exactly 1 breaker trip", c)
	}

	// Inside the cooldown window the search stage is demonstrably skipped:
	// its entry point is never announced again.
	resp := submit()
	if len(resp.SkippedByBreaker) != 1 || resp.SkippedByBreaker[0] != telamalloc.StageSearch {
		t.Fatalf("skipped %v, want [search]", resp.SkippedByBreaker)
	}
	mu.Lock()
	entries := searchEntries
	mu.Unlock()
	if entries != 3 {
		t.Fatalf("search entered %d times, want 3 (skipped while open)", entries)
	}

	// After the cooldown a half-open probe re-admits the stage; the faults
	// are exhausted, the probe runs clean, and the breaker closes.
	time.Sleep(200 * time.Millisecond)
	resp = submit()
	if len(resp.SkippedByBreaker) != 0 {
		t.Fatalf("probe request skipped %v, want the stage re-admitted", resp.SkippedByBreaker)
	}
	if resp.Winner != telamalloc.StageSearch {
		t.Fatalf("probe winner %s, want search once the faults stop", resp.Winner)
	}
	c := s.Snapshot()
	if c.BreakerProbes < 1 || c.BreakerRecoveries != 1 {
		t.Fatalf("counters %+v, want >=1 probe and exactly 1 recovery", c)
	}
	// And the recovered stage keeps serving.
	if resp := submit(); resp.Winner != telamalloc.StageSearch {
		t.Fatalf("post-recovery winner %s, want search", resp.Winner)
	}
}

// Budget exhaustion is the ladder's normal escalation path, not a sign the
// stage is broken: even a hair-trigger breaker must not trip on it.
func TestBreakerIgnoresBudgetExhaustion(t *testing.T) {
	p := tightProblem(t)
	s := New(Config{
		Workers:   1,
		Breaker:   BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		CacheSize: -1,
	})
	defer mustDrain(t, s)
	for i := 0; i < 3; i++ {
		// Three steps cannot pack the tight problem: search runs out of
		// budget and spill degrades the answer.
		resp, err := s.Submit(context.Background(), Request{Problem: p, MaxSteps: 3})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Winner == telamalloc.StageSearch {
			t.Fatalf("request %d: search won on a 3-step pot; the fixture no longer exhausts it", i)
		}
		if len(resp.SkippedByBreaker) != 0 {
			t.Fatalf("request %d skipped %v: budget exhaustion tripped a breaker", i, resp.SkippedByBreaker)
		}
	}
	if c := s.Snapshot(); c.BreakerTrips != 0 {
		t.Fatalf("counters %+v, want no breaker trips", c)
	}
}

// wedgeProblem is provably infeasible (30 co-live buffers of 7 bytes in 64),
// so the ladder goes straight to spill, whose first packing attempt runs
// into the stall faults.
func wedgeProblem() Problem {
	p := Problem{Memory: 64, Name: "wedge"}
	for i := 0; i < 30; i++ {
		p.Buffers = append(p.Buffers, telamalloc.Buffer{Start: 0, End: 10, Size: 7})
	}
	return p
}

// A solve that stalls through its whole budget stops at the deadline on its
// own: the first budget poll after the stall reports the overrun, and the
// request fails once with ErrBudget instead of degrading by spilling every
// buffer behind an expired deadline.
func TestStalledSolveStopsAtDeadline(t *testing.T) {
	const stall = 400 * time.Millisecond
	inj := faultinject.New(
		faultinject.Fault{Point: "group0", Kind: faultinject.Stall, StallFor: stall},
	)
	s := New(Config{Workers: 1, QueueDepth: 4, Hook: inj.Hook})
	defer mustDrain(t, s)

	start := time.Now()
	resp, err := s.Submit(context.Background(), Request{Problem: wedgeProblem(), Timeout: 30 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, telamalloc.ErrBudget) {
		t.Fatalf("Submit returned err %v (resp %+v) after %v, want ErrBudget", err, resp, elapsed)
	}
	if resp == nil || resp.Outcome != OutcomeFailed || len(resp.Spilled) != 0 {
		t.Fatalf("resp %+v, want OutcomeFailed with no spilled buffers", resp)
	}
	if elapsed >= stall+200*time.Millisecond {
		t.Errorf("stalled request took %v, want under %v", elapsed, stall+200*time.Millisecond)
	}
	c := s.Snapshot()
	if c.Submitted != 1 || c.Failed != 1 {
		t.Errorf("counters %+v, want exactly one failed outcome", c)
	}
	if accounted := c.Shed + c.RejectedDraining + c.Cancelled + c.Solved + c.Degraded + c.Failed; accounted != c.Submitted {
		t.Errorf("counter ledger unbalanced: %+v (accounted %d of %d)", c, accounted, c.Submitted)
	}
}

func TestQueueBudgetExhaustedInQueue(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Workers:        1,
		RequestTimeout: 30 * time.Millisecond,
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				<-gate
			}
			return false
		},
	})
	// First request parks the worker; the second's whole pot burns in queue.
	first := make(chan struct{})
	go func() {
		s.Submit(context.Background(), Request{Problem: easyProblem()})
		close(first)
	}()
	time.Sleep(20 * time.Millisecond)
	errCh := make(chan error, 1)
	respCh := make(chan *Response, 1)
	go func() {
		resp, err := s.Submit(context.Background(), Request{Problem: easyProblem()})
		respCh <- resp
		errCh <- err
	}()
	time.Sleep(60 * time.Millisecond) // exceed the 30ms pot while queued
	close(gate)
	<-first
	resp, err := <-respCh, <-errCh
	if !errors.Is(err, telamalloc.ErrBudget) {
		t.Fatalf("err %v, want ErrBudget for a pot spent in queue", err)
	}
	if resp == nil || resp.Outcome != OutcomeFailed || !strings.Contains(resp.Err, "queue") {
		t.Fatalf("resp %+v, want structured queue-budget failure", resp)
	}
	mustDrain(t, s)
}

package server

// The soak suite is the serving layer's acceptance proof, meant to run
// under -race (`make soak`): N concurrent clients, a mixed workload, armed
// faults at the solver, pipeline, and server decision points — and the
// assertions the robustness contract names: every request reaches exactly
// one terminal outcome, no panic escapes, shedding kicks in before the
// queue grows, and drain completes within its deadline.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/faultinject"
)

// terminalClass buckets a Submit result. classify fails the test if the
// (resp, err) pair does not match exactly one bucket — the "exactly one
// terminal outcome" assertion.
type terminalClass string

const (
	classSolved    terminalClass = "solved"
	classDegraded  terminalClass = "degraded"
	classFailed    terminalClass = "failed"
	classShed      terminalClass = "shed"
	classCancelled terminalClass = "cancelled"
	classRejected  terminalClass = "rejected"
)

func classify(t *testing.T, resp *Response, err error) terminalClass {
	t.Helper()
	switch {
	case err == nil && resp != nil && resp.Outcome == OutcomeSolved:
		return classSolved
	case err == nil && resp != nil && resp.Outcome == OutcomeDegraded:
		return classDegraded
	case err == nil:
		t.Fatalf("nil error with nil response: no terminal outcome")
	case errors.Is(err, ErrOverloaded):
		if resp != nil {
			t.Fatalf("shed request also carried a response: %+v", resp)
		}
		return classShed
	case errors.Is(err, ErrDraining):
		return classRejected
	case errors.Is(err, ErrCancelled):
		if resp != nil {
			t.Fatalf("cancelled request also carried a response: %+v", resp)
		}
		return classCancelled
	case resp != nil && resp.Outcome == OutcomeFailed:
		return classFailed
	case errors.Is(err, telamalloc.ErrInternal):
		// A contained server-boundary panic (e.g. the admit hook).
		return classFailed
	}
	t.Fatalf("unclassifiable outcome: resp=%+v err=%v", resp, err)
	return ""
}

// TestServerSoakUnderFaults drives concurrent clients through a server with
// faults armed at every new boundary: solver decision points, pipeline
// stage entry/exit, and the server's own admit/dequeue points.
func TestServerSoakUnderFaults(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSearch), After: 2, Kind: faultinject.Panic},
		faultinject.Fault{Point: faultinject.StageExit(telamalloc.StageGreedy), After: 4, Kind: faultinject.Panic},
		// Spill is the one stage the cache never short-circuits (degraded
		// packings are not cached), so this boundary fault is sure to fire.
		faultinject.Fault{Point: faultinject.StageEntry(telamalloc.StageSpill), After: 3, Kind: faultinject.Panic},
		// Not Starve here: admit starvation is sticky and would shed the
		// whole remaining workload (covered by TestAdmitStarveForcesShed).
		faultinject.Fault{Point: faultinject.PointServerAdmit, After: 7, Kind: faultinject.Panic},
		faultinject.Fault{Point: faultinject.PointServerDequeue, After: 5, Kind: faultinject.Stall, StallFor: 30 * time.Millisecond},
		faultinject.Fault{Point: "group0", After: 10, Kind: faultinject.Stall, StallFor: 20 * time.Millisecond},
		faultinject.Fault{Point: "group1", After: 6, Kind: faultinject.Panic},
	)
	s := New(Config{
		Workers:        4,
		QueueDepth:     8,
		RequestTimeout: 5 * time.Second,
		MaxSteps:       200000,
		Breaker:        BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
		Hook:           inj.Hook,
	})

	problems := []Problem{easyProblem(), tightProblem(t), infeasibleProblem(), invalidProblem()}
	const clients = 8
	const perClient = 15
	var wg sync.WaitGroup
	var mu sync.Mutex
	tally := map[terminalClass]int{}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				p := problems[(c+i)%len(problems)]
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if (c+i)%10 == 9 {
					// A sprinkling of impatient callers.
					ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				}
				resp, err := s.Submit(ctx, Request{Problem: p})
				cancel()
				class := classify(t, resp, err)
				if class == classSolved {
					sol := telamalloc.Solution{Offsets: resp.Offsets}
					if verr := sol.Validate(p); verr != nil {
						t.Errorf("solved response carries invalid packing: %v", verr)
					}
				}
				mu.Lock()
				tally[class]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}

	total := 0
	for _, n := range tally {
		total += n
	}
	if total != clients*perClient {
		t.Fatalf("outcomes %v sum to %d, want %d — a request got zero or two verdicts", tally, total, clients*perClient)
	}
	c := s.Snapshot()
	if c.Submitted != int64(clients*perClient) {
		t.Fatalf("submitted %d, want %d", c.Submitted, clients*perClient)
	}
	// The counter ledger must balance: every submission is accounted for
	// exactly once after drain.
	accounted := c.Shed + c.RejectedDraining + c.Cancelled + c.Solved + c.Degraded + c.Failed
	if accounted != c.Submitted {
		t.Fatalf("counter ledger unbalanced: %+v (accounted %d of %d)", c, accounted, c.Submitted)
	}
	// The armed faults must actually have fired, or this soak proved nothing.
	if fired := inj.Fired(); len(fired) < 5 {
		t.Errorf("only %d faults fired (%v); the soak is under-armed", len(fired), fired)
	}
	if tally[classSolved] == 0 || tally[classDegraded] == 0 || tally[classFailed] == 0 {
		t.Errorf("workload mix did not exercise all pipeline verdicts: %v", tally)
	}
}

// TestSoakSheddingBoundsLatency: under sustained overload the queue cannot
// grow past its bound, and the shed path answers fast even while every
// worker is wedged — bounded shedding latency is the admission-control
// contract.
func TestSoakSheddingBoundsLatency(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Workers:    2,
		QueueDepth: 4,
		// This soak floods identical requests on purpose; dedup would make
		// 39 of them followers of one queued solve and no shedding would
		// ever engage. Admission control is the contract under test.
		DisableDedup: true,
		Hook: func(point string) bool {
			if point == faultinject.PointServerDequeue {
				<-gate
			}
			return false
		},
	})
	p := easyProblem()
	const clients = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	var worstShed time.Duration
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			start := time.Now()
			_, err := s.Submit(context.Background(), Request{Problem: p})
			if errors.Is(err, ErrOverloaded) {
				elapsed := time.Since(start)
				mu.Lock()
				shed++
				if elapsed > worstShed {
					worstShed = elapsed
				}
				mu.Unlock()
			}
		}()
	}
	// Submissions outnumber workers+queue 40 : 6; shedding must engage
	// while the workers are still parked.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	shedSoFar := shed
	mu.Unlock()
	if shedSoFar < clients-6-2 {
		t.Errorf("only %d shed while workers were parked; queue should bound admissions at ~6", shedSoFar)
	}
	if s.QueueDepth() > 4 {
		t.Errorf("queue depth %d exceeds its bound", s.QueueDepth())
	}
	close(gate)
	wg.Wait()
	mustDrain(t, s)
	if worstShed > time.Second {
		t.Errorf("worst shed latency %v; shedding must not wait on workers", worstShed)
	}
}

// TestSoakDrainDeadline: drain under load completes within its deadline
// (plus the cooperative-cancellation stride) even with a stalled stage.
func TestSoakDrainDeadline(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Point: "group0", After: 1, Kind: faultinject.Stall, StallFor: 250 * time.Millisecond},
	)
	s := New(Config{Workers: 2, QueueDepth: 16, MaxSteps: 200000, Hook: inj.Hook})
	problems := []Problem{easyProblem(), tightProblem(t), infeasibleProblem()}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Problem: problems[i%len(problems)]})
			classify(t, resp, err) // must still be exactly one terminal outcome
		}(i)
	}
	time.Sleep(30 * time.Millisecond)
	deadline := 100 * time.Millisecond
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	err := s.Drain(ctx)
	elapsed := time.Since(start)
	// Clean finish under the deadline or a forced cancel just past it —
	// but never an unbounded wait.
	if err != nil && !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("drain err %v", err)
	}
	if elapsed > deadline+2*time.Second {
		t.Fatalf("drain took %v, want bounded by deadline %v + stall/stride slack", elapsed, deadline)
	}
	wg.Wait() // every client got its verdict
}

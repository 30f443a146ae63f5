package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/phases"
	"telamalloc/internal/telamon"
	"telamalloc/internal/workload"
)

// faultParallelisms covers sequential, small-pool, and GOMAXPROCS runs.
var faultParallelisms = []int{1, 2, 0}

func multiGroup(t *testing.T) *buffers.Problem {
	t.Helper()
	p := workload.MultiComponent(4, 15, 110, 7)
	if got := len(phases.SplitIndependent(p)); got < 3 {
		t.Fatalf("fixture has %d independent groups, need >= 3", got)
	}
	return p
}

// TestInjectedPanicBecomesInternal: a panic injected at a solver choice
// point of any subproblem surfaces as telamon.Internal with an attributed
// error — never a crashed test binary — at every parallelism level.
func TestInjectedPanicBecomesInternal(t *testing.T) {
	p := multiGroup(t)
	for _, par := range faultParallelisms {
		in := faultinject.New(faultinject.Fault{Point: "group1", After: 5, Kind: faultinject.Panic})
		res := Solve(p, Config{Parallelism: par, Hook: in.Hook})
		if res.Status != telamon.Internal {
			t.Fatalf("parallelism %d: status %v, want internal-error", par, res.Status)
		}
		if res.Solution != nil {
			t.Fatalf("parallelism %d: non-nil solution on internal error", par)
		}
		if !errors.Is(res.Err, ErrPanic) {
			t.Fatalf("parallelism %d: err %v does not wrap ErrPanic", par, res.Err)
		}
		var ip *faultinject.InjectedPanic
		if !errors.As(res.Err, &ip) && !strings.Contains(res.Err.Error(), "faultinject") {
			t.Fatalf("parallelism %d: err %v does not carry the injected panic", par, res.Err)
		}
		if fired := in.Fired(); len(fired) != 1 {
			t.Fatalf("parallelism %d: fired %v, want exactly one fault", par, fired)
		}
	}
}

// panickyChooser is a user-supplied learned policy that misbehaves.
type panickyChooser struct{}

func (panickyChooser) Choose(*telamon.State, *telamon.DecisionPoint) (int, bool) {
	panic("model forest is corrupt")
}

// panickyGate misbehaves on the Nth decision point.
type panickyGate struct{ calls, after int }

func (g *panickyGate) Expensive(*telamon.State) bool {
	g.calls++
	if g.calls >= g.after {
		panic("gate feature vector out of range")
	}
	return false
}

// tightSingle returns a single-component instance hard enough to major-
// backtrack under strict candidates (verified: ~3 major backtracks), so the
// chooser hook is actually consulted.
func tightSingle() *buffers.Problem {
	return workload.Random(4, 103)
}

func TestPanicInChooserAttributed(t *testing.T) {
	p := tightSingle()
	res := Solve(p, Config{
		Chooser:              panickyChooser{},
		NoFallbackCandidates: true,
		DisableSplit:         true,
		MaxSteps:             200000,
	})
	if res.Status != telamon.Internal {
		t.Fatalf("status %v (major backtracks %d), want internal-error",
			res.Status, res.Stats.MajorBacktracks)
	}
	if !errors.Is(res.Err, ErrPanic) || !strings.Contains(res.Err.Error(), "backtrack chooser") {
		t.Fatalf("err %v: want ErrPanic attributed to the backtrack chooser", res.Err)
	}
}

func TestPanicInGateAttributed(t *testing.T) {
	p := tightSingle()
	res := Solve(p, Config{Gate: &panickyGate{after: 3}})
	if res.Status != telamon.Internal {
		t.Fatalf("status %v, want internal-error", res.Status)
	}
	if !errors.Is(res.Err, ErrPanic) || !strings.Contains(res.Err.Error(), "candidate gate") {
		t.Fatalf("err %v: want ErrPanic attributed to the candidate gate", res.Err)
	}
}

// TestInjectedStarvationBecomesBudget: a starved group reports Budget, the
// same way a genuinely exhausted step pot would.
func TestInjectedStarvationBecomesBudget(t *testing.T) {
	p := multiGroup(t)
	for _, par := range faultParallelisms {
		in := faultinject.New(faultinject.Fault{Point: "group0", After: 3, Kind: faultinject.Starve})
		res := Solve(p, Config{Parallelism: par, Hook: in.Hook})
		if res.Status != telamon.Budget {
			t.Fatalf("parallelism %d: status %v, want budget-exceeded", par, res.Status)
		}
		if res.Solution != nil {
			t.Fatalf("parallelism %d: non-nil solution on budget", par)
		}
	}
}

// TestContextCancellationLatencyBounded: even with every solver step slowed
// by a wedged hook, a context cancellation surfaces as Cancelled within the
// polling stride — the pipeline's liveness guarantee.
func TestContextCancellationLatencyBounded(t *testing.T) {
	// Big enough that the search spans several polling strides (256 budget
	// checks each): with every check slowed 50µs, the full solve would take
	// tens of milliseconds, and the 5ms cancellation must cut it short.
	p := workload.FullOverlap(400, 3)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	slow := func(string) bool {
		time.Sleep(50 * time.Microsecond)
		return false
	}
	start := time.Now()
	res := Solve(p, Config{Ctx: ctx, Hook: slow})
	elapsed := time.Since(start)
	if res.Status != telamon.Cancelled {
		t.Fatalf("status %v, want cancelled", res.Status)
	}
	// Worst case: one polling stride of slowed budget checks per group
	// after the cancel lands. Allow a very generous CI margin.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; latency bound violated", elapsed)
	}
}

// TestPreCancelledContext: a context that is already done never starts the
// search.
func TestPreCancelledContext(t *testing.T) {
	p := multiGroup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Solve(p, Config{Ctx: ctx})
	if res.Status != telamon.Cancelled {
		t.Fatalf("status %v, want cancelled", res.Status)
	}
	if res.Stats.Steps != 0 {
		t.Fatalf("search took %d steps under a pre-cancelled context", res.Stats.Steps)
	}
}

// TestDeterminismUnderStallFaults: stalls change timing, never results.
// Offsets must be byte-identical to the fault-free sequential solve at
// every parallelism level.
func TestDeterminismUnderStallFaults(t *testing.T) {
	p := multiGroup(t)
	clean := Solve(p, Config{Parallelism: 1})
	if clean.Status != telamon.Solved {
		t.Fatalf("fixture not solvable: %v", clean.Status)
	}
	for _, par := range faultParallelisms {
		in := faultinject.New(
			faultinject.Fault{Point: "group0", After: 2, Kind: faultinject.Stall, StallFor: 5 * time.Millisecond},
			faultinject.Fault{Point: "group2", After: 4, Kind: faultinject.Stall, StallFor: 5 * time.Millisecond},
		)
		res := Solve(p, Config{Parallelism: par, Hook: in.Hook})
		if res.Status != telamon.Solved {
			t.Fatalf("parallelism %d: status %v under stall faults", par, res.Status)
		}
		if !reflect.DeepEqual(res.Solution.Offsets, clean.Solution.Offsets) {
			t.Fatalf("parallelism %d: offsets diverged under stall faults", par)
		}
	}
}

// TestInternalFailureDeterministicAcrossParallelism: a point-targeted panic
// yields the same status and the same attributed group at every
// parallelism level.
func TestInternalFailureDeterministicAcrossParallelism(t *testing.T) {
	p := multiGroup(t)
	var firstErr string
	for i, par := range faultParallelisms {
		in := faultinject.New(faultinject.Fault{Point: "group2", After: 4, Kind: faultinject.Panic})
		res := Solve(p, Config{Parallelism: par, Hook: in.Hook})
		if res.Status != telamon.Internal {
			t.Fatalf("parallelism %d: status %v, want internal-error", par, res.Status)
		}
		if i == 0 {
			firstErr = res.Err.Error()
		} else if res.Err.Error() != firstErr {
			t.Fatalf("parallelism %d: error %q differs from sequential %q", par, res.Err, firstErr)
		}
	}
	if !strings.Contains(firstErr, "group 2") {
		t.Fatalf("error %q does not attribute the failing group", firstErr)
	}
}

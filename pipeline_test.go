package telamalloc

// In-package tests for AllocatePipeline: the fault-injection cases reach
// the unexported core.Config.Hook through Option literals, which an
// external test package could not construct.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/workload"
)

// fromInternal converts a generated workload back to the public type.
func fromInternal(q *buffers.Problem) Problem {
	p := Problem{Memory: q.Memory, Name: q.Name}
	for _, b := range q.Buffers {
		p.Buffers = append(p.Buffers, Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align})
	}
	return p
}

// easyProblem is solvable by the greedy heuristic.
func easyProblem() Problem {
	p := fromInternal(workload.NonOverlapping(12, 1))
	p.Memory *= 2
	return p
}

// tightProblem defeats both heuristics but the search solves it (~60
// steps, 4 independent components) — probed, not guessed.
func tightProblem(t *testing.T) Problem {
	t.Helper()
	p := fromInternal(workload.MultiComponent(4, 15, 105, 1))
	if _, err := AllocateGreedy(p); err == nil {
		t.Fatal("fixture drifted: greedy solves the tight problem")
	}
	if _, err := AllocateBestFit(p); err == nil {
		t.Fatal("fixture drifted: best-fit solves the tight problem")
	}
	return p
}

// infeasibleProblem is provably unsatisfiable: two co-live buffers that
// together exceed memory.
func infeasibleProblem() Problem {
	return Problem{
		Memory: 4,
		Buffers: []Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
	}
}

// withFaultHook wires a fault injector into the solver's test-only hook.
func withFaultHook(inj *faultinject.Injector) Option {
	return func(c *config) { c.core.Hook = inj.Hook }
}

func stageByName(t *testing.T, res PipelineResult, name string) StageReport {
	t.Helper()
	for _, rep := range res.Stages {
		if rep.Stage == name {
			return rep
		}
	}
	t.Fatalf("no report for stage %q in %+v", name, res.Stages)
	return StageReport{}
}

func TestPipelineWinnerGreedy(t *testing.T) {
	p := easyProblem()
	res, err := AllocatePipeline(p)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if res.Winner != StageGreedy || res.Degraded {
		t.Fatalf("winner %q degraded=%v, want greedy full packing", res.Winner, res.Degraded)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("got %d stage reports, want 4", len(res.Stages))
	}
	for _, later := range []string{StageBestFit, StageSearch, StageSpill} {
		rep := stageByName(t, res, later)
		if !rep.Skipped || !strings.Contains(rep.SkipReason, "earlier stage succeeded") {
			t.Errorf("stage %s: skipped=%v reason=%q, want skipped after the win", later, rep.Skipped, rep.SkipReason)
		}
	}
}

func TestPipelineWinnerSearch(t *testing.T) {
	p := tightProblem(t)
	res, err := AllocatePipeline(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if res.Winner != StageSearch || res.Degraded {
		t.Fatalf("winner %q degraded=%v, want search full packing", res.Winner, res.Degraded)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	for _, failed := range []string{StageGreedy, StageBestFit} {
		rep := stageByName(t, res, failed)
		if rep.Skipped || !errors.Is(rep.Err, ErrNoSolution) {
			t.Errorf("stage %s: skipped=%v err=%v, want a recorded ErrNoSolution failure", failed, rep.Skipped, rep.Err)
		}
	}
	search := stageByName(t, res, StageSearch)
	if search.Stats.Steps == 0 || search.StepBudget == 0 {
		t.Errorf("search report missing effort accounting: %+v", search)
	}
}

func TestPipelineDegradesToSpill(t *testing.T) {
	p := infeasibleProblem()
	res, err := AllocatePipeline(p)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if res.Winner != StageSpill || !res.Degraded || res.Spill == nil {
		t.Fatalf("winner %q degraded=%v spill=%v, want degraded spill plan", res.Winner, res.Degraded, res.Spill)
	}
	if len(res.Spill.Spilled) != 1 {
		t.Fatalf("spilled %v, want exactly one buffer", res.Spill.Spilled)
	}
	if res.LowerBound != 8 || res.Memory != 4 {
		t.Fatalf("evidence lb=%d mem=%d, want 8 > 4", res.LowerBound, res.Memory)
	}
	// Packing stages must have been skipped on the infeasibility proof, not
	// run to their budgets.
	for _, skipped := range []string{StageGreedy, StageBestFit, StageSearch} {
		rep := stageByName(t, res, skipped)
		if !rep.Skipped || !strings.Contains(rep.SkipReason, "provably infeasible") {
			t.Errorf("stage %s: skipped=%v reason=%q, want infeasibility skip", skipped, rep.Skipped, rep.SkipReason)
		}
	}
	// The spilled buffer is off-chip (-1); the retained one is placed.
	spilled := res.Spill.Spilled[0]
	if res.Solution.Offsets[spilled] != -1 {
		t.Errorf("spilled buffer offset %d, want -1", res.Solution.Offsets[spilled])
	}
	if off := res.Solution.Offsets[1-spilled]; off < 0 || off+p.Buffers[1-spilled].Size > p.Memory {
		t.Errorf("retained buffer at %d does not fit", off)
	}
}

func TestPipelinePinnedSpillCosts(t *testing.T) {
	p := infeasibleProblem()
	res, err := AllocatePipeline(p, WithSpillCosts([]int64{1, 100}, []bool{false, false}))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(res.Spill.Spilled) != 1 || res.Spill.Spilled[0] != 0 || res.Spill.SpillCost != 1 {
		t.Fatalf("plan %+v, want the cheap buffer 0 evicted at cost 1", res.Spill)
	}
	// Pinning the cheap buffer forces the expensive eviction.
	res, err = AllocatePipeline(p, WithSpillCosts([]int64{1, 100}, []bool{true, false}))
	if err != nil {
		t.Fatalf("pipeline with pin: %v", err)
	}
	if len(res.Spill.Spilled) != 1 || res.Spill.Spilled[0] != 1 {
		t.Fatalf("plan %+v, want pinned buffer kept", res.Spill)
	}
}

// Spill costs whose length differs from the buffer count are rejected
// before any stage runs, whether an earlier stage would have won (the
// feasible problem, which greedy solves) or the spill stage would have
// used them (the infeasible one). Empty slices mean no costs.
func TestPipelineSpillCostsLength(t *testing.T) {
	for name, p := range map[string]Problem{"feasible": easyProblem(), "infeasible": infeasibleProblem()} {
		n := len(p.Buffers)
		for _, tc := range []struct {
			opt  Option
			want string
		}{
			{WithSpillCosts(make([]int64, n+1), nil), fmt.Sprintf("spill: %d weights for %d buffers", n+1, n)},
			{WithSpillCosts(nil, make([]bool, n-1)), fmt.Sprintf("spill: %d pinned flags for %d buffers", n-1, n)},
		} {
			res, err := AllocatePipeline(p, tc.opt)
			if !errors.Is(err, ErrInvalidProblem) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err %v, want ErrInvalidProblem with %q", name, err, tc.want)
			}
			if len(res.Stages) != 0 {
				t.Errorf("%s: %d stage reports, want none before the ladder", name, len(res.Stages))
			}
		}
		if _, err := AllocatePipeline(p, WithSpillCosts([]int64{}, []bool{})); err != nil {
			t.Errorf("%s: empty spill costs: %v", name, err)
		}
	}
}

func TestPipelineCancelled(t *testing.T) {
	a, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.Pipeline(ctx, easyProblem())
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err %v, want ErrCancelled", err)
	}
	for _, rep := range res.Stages {
		if !rep.Skipped {
			t.Errorf("stage %s ran despite pre-cancelled context", rep.Stage)
		}
	}
}

func TestPipelineBudgetExhausted(t *testing.T) {
	p := tightProblem(t)
	res, err := AllocatePipeline(p, WithStages(StageSearch), WithMaxSteps(3))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err %v, want ErrBudget", err)
	}
	if res.LowerBound == 0 {
		t.Error("hard failure must still carry the lower-bound evidence")
	}
	if rep := stageByName(t, res, StageSearch); !errors.Is(rep.Err, ErrBudget) {
		t.Errorf("search report err %v, want ErrBudget", rep.Err)
	}
}

// An expired wall deadline must fail the spill stage with ErrBudget. Past
// the deadline every packing attempt fails at its first budget poll; read
// as "does not fit", that would evict every buffer and report the empty
// packing as a degraded success.
func TestPipelineSpillHonoursDeadline(t *testing.T) {
	m, err := workload.ByName("FPN Model")
	if err != nil {
		t.Fatal(err)
	}
	q := m.Generate(1)
	q.Memory = buffers.Contention(q).Peak() * 95 / 100
	res, err := AllocatePipeline(fromInternal(q), WithMaxSteps(20000), WithTimeout(time.Nanosecond))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err %v (degraded=%v spill=%+v), want ErrBudget", err, res.Degraded, res.Spill)
	}
	if res.Degraded || res.Spill != nil {
		t.Errorf("failed run reported a spill plan: degraded=%v spill=%+v", res.Degraded, res.Spill)
	}
	if rep := stageByName(t, res, StageSpill); !errors.Is(rep.Err, ErrBudget) {
		t.Errorf("spill report err %v, want ErrBudget", rep.Err)
	}
}

// TestSpillSearchHonoursCallContext: a cancel landing while the spill stage
// searches stops that search, not only the planning loop around it. The
// problem is provably infeasible, so spill is the first stage that runs,
// and the fault hook cancels the call context at the first budget check of
// the spill stage's first search.
func TestSpillSearchHonoursCallContext(t *testing.T) {
	m, err := workload.ByName("FPN Model")
	if err != nil {
		t.Fatal(err)
	}
	q := m.Generate(1)
	q.Memory = buffers.Contention(q).Peak() * 95 / 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var group0 atomic.Int64
	hook := func(point string) bool {
		if point == "group0" && group0.Add(1) == 1 {
			cancel()
		}
		return false
	}
	a, err := New(WithMaxSteps(20000), WithParallelism(1), WithFaultHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Pipeline(ctx, fromInternal(q))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err %v (degraded=%v spill=%+v), want ErrCancelled", err, res.Degraded, res.Spill)
	}
	if res.Spill != nil {
		t.Errorf("cancelled run reported a spill plan: %+v", res.Spill)
	}
	if rep := stageByName(t, res, StageSpill); rep.Stats.Steps != 0 {
		t.Errorf("spill stage took %d steps after the cancel", rep.Stats.Steps)
	}
	if n := group0.Load(); n != 1 {
		t.Errorf("hook saw group0 %d times, want 1", n)
	}
}

func TestPipelineLadderValidation(t *testing.T) {
	for name, opts := range map[string][]Option{
		"unknown":   {WithStages("warp-drive")},
		"duplicate": {WithStages(StageGreedy, StageGreedy)},
		"empty":     {WithStages()},
	} {
		if _, err := AllocatePipeline(easyProblem(), opts...); !errors.Is(err, ErrInvalidProblem) {
			t.Errorf("%s ladder: err %v, want ErrInvalidProblem", name, err)
		}
	}
}

func TestPipelineCustomLadder(t *testing.T) {
	p := tightProblem(t)
	res, err := AllocatePipeline(p, WithStages(StageSearch, StageSpill), WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if res.Winner != StageSearch || len(res.Stages) != 2 {
		t.Fatalf("winner %q with %d stages, want search out of 2", res.Winner, len(res.Stages))
	}
}

// TestPipelineContainsInjectedPanic: a panic at a solver decision point
// inside the search stage is contained, attributed, and the ladder
// escalates to the spill stage, which still produces a full packing. No
// panic escapes the public API.
func TestPipelineContainsInjectedPanic(t *testing.T) {
	p := tightProblem(t)
	inj := faultinject.New(faultinject.Fault{Point: "group0", After: 1, Kind: faultinject.Panic})
	res, err := AllocatePipeline(p, WithMaxSteps(100000), withFaultHook(inj))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	search := stageByName(t, res, StageSearch)
	if !errors.Is(search.Err, ErrInternal) {
		t.Fatalf("search err %v, want ErrInternal from the injected panic", search.Err)
	}
	// The panic fault is one-shot, so the spill stage's first attempt packs
	// the full problem: a clean recovery with zero evictions.
	if res.Winner != StageSpill || res.Degraded {
		t.Fatalf("winner %q degraded=%v, want clean spill-stage recovery", res.Winner, res.Degraded)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("recovered solution invalid: %v", err)
	}
	if fired := inj.Fired(); len(fired) != 1 {
		t.Fatalf("fired faults %v, want exactly one", fired)
	}
}

// TestPipelinePanicInStageBoundary: a panic raised at the stage boundary
// itself (outside core.Solve's containment) is caught by the pipeline's own
// recover and the ladder still escalates.
func TestPipelinePanicInStageBoundary(t *testing.T) {
	p := easyProblem()
	boom := func(c *config) {
		c.core.Hook = func(point string) bool {
			if point == "stage:"+StageGreedy {
				panic("stage boundary fault")
			}
			return false
		}
	}
	res, err := AllocatePipeline(p, Option(boom))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	greedy := stageByName(t, res, StageGreedy)
	if !errors.Is(greedy.Err, ErrInternal) || !strings.Contains(greedy.Err.Error(), "stage greedy") {
		t.Fatalf("greedy err %v, want attributed ErrInternal", greedy.Err)
	}
	if res.Winner != StageBestFit {
		t.Fatalf("winner %q, want best-fit after the greedy crash", res.Winner)
	}
}

// TestPipelineStarvationEscalates: sticky budget starvation injected into
// the search makes it report ErrBudget; with no spill stage configured the
// pipeline surfaces that verdict.
func TestPipelineStarvationEscalates(t *testing.T) {
	p := tightProblem(t)
	inj := faultinject.New(faultinject.Fault{Point: "", After: 1, Kind: faultinject.Starve})
	res, err := AllocatePipeline(p,
		WithStages(StageGreedy, StageSearch),
		WithMaxSteps(100000), withFaultHook(inj))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err %v, want ErrBudget from starved search", err)
	}
	if rep := stageByName(t, res, StageSearch); !errors.Is(rep.Err, ErrBudget) {
		t.Errorf("search report err %v, want ErrBudget", rep.Err)
	}
}

// TestPipelineDeterministicAcrossParallelism: the pipeline inherits the
// solver's determinism contract — byte-identical offsets at every
// parallelism level.
func TestPipelineDeterministicAcrossParallelism(t *testing.T) {
	p := tightProblem(t)
	var want []int64
	for _, par := range []int{1, 2, 0} {
		res, err := AllocatePipeline(p, WithMaxSteps(100000), WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if want == nil {
			want = res.Solution.Offsets
			continue
		}
		for i, off := range res.Solution.Offsets {
			if off != want[i] {
				t.Fatalf("parallelism %d: offset[%d]=%d, want %d", par, i, off, want[i])
			}
		}
	}
}

// TestPipelineStageShares: a custom share split changes the carved step
// budgets, and unused budget rolls forward to later stages.
func TestPipelineStageShares(t *testing.T) {
	p := tightProblem(t)
	res, err := AllocatePipeline(p,
		WithStages(StageSearch, StageSpill),
		WithMaxSteps(1000),
		WithStageShare(StageSearch, 3),
		WithStageShare(StageSpill, 1))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	search := stageByName(t, res, StageSearch)
	if search.StepBudget != 750 {
		t.Errorf("search budget %d, want 750 (3/4 of 1000)", search.StepBudget)
	}
}

func TestPipelineInvalidProblem(t *testing.T) {
	if _, err := AllocatePipeline(Problem{Memory: 0}); !errors.Is(err, ErrInvalidProblem) {
		t.Errorf("err %v, want ErrInvalidProblem", err)
	}
}

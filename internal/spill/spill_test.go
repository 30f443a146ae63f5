package spill

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/core"
	"telamalloc/internal/heuristics"
	"telamalloc/internal/telamon"
	"telamalloc/internal/workload"
)

func tmAlloc() heuristics.Allocator {
	return core.Allocator{Config: core.Config{MaxSteps: 100000}}
}

func TestNoSpillWhenFeasible(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
		Memory: 8,
	}
	p.Normalize()
	plan, err := Make(Request{Problem: p, Allocator: tmAlloc()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Spilled) != 0 || plan.SpillCost != 0 {
		t.Errorf("spilled %v on a feasible problem", plan.Spilled)
	}
	if err := plan.Solution.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestSpillsMinimalBufferOnSimpleOverflow(t *testing.T) {
	// Three fully overlapping buffers, memory fits only two. The cheapest
	// per-byte eviction is the big low-weight one.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
		Memory: 8,
	}
	p.Normalize()
	weights := []int64{100, 1, 100} // buffer 1 is cheap to spill
	plan, err := Make(Request{Problem: p, Weights: weights, Allocator: tmAlloc()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Spilled) != 1 || plan.Spilled[0] != 1 {
		t.Errorf("Spilled = %v, want [1]", plan.Spilled)
	}
	if plan.SpillCost != 1 {
		t.Errorf("SpillCost = %d, want 1", plan.SpillCost)
	}
	if plan.Solution.Offsets[1] != -1 {
		t.Error("spilled buffer has an on-chip offset")
	}
	// Retained buffers form a valid packing.
	sub := &buffers.Problem{Memory: 8, Buffers: []buffers.Buffer{p.Buffers[0], p.Buffers[2]}}
	sub.Normalize()
	s := &buffers.Solution{Offsets: []int64{plan.Solution.Offsets[0], plan.Solution.Offsets[2]}}
	if err := s.Validate(sub); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedBuffersAreNeverSpilled(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
		Memory: 8,
	}
	p.Normalize()
	pinned := []bool{true, true, false}
	plan, err := Make(Request{Problem: p, Pinned: pinned, Allocator: tmAlloc()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Spilled) != 1 || plan.Spilled[0] != 2 {
		t.Errorf("Spilled = %v, want [2]", plan.Spilled)
	}
}

func TestCannotFit(t *testing.T) {
	// Everything pinned and infeasible: must report ErrCannotFit.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
		Memory: 4,
	}
	p.Normalize()
	pinned := []bool{true, true}
	_, err := Make(Request{Problem: p, Pinned: pinned, Allocator: tmAlloc()})
	if !errors.Is(err, ErrCannotFit) {
		t.Errorf("err = %v, want ErrCannotFit", err)
	}
}

func TestMaxSpillsCap(t *testing.T) {
	p := &buffers.Problem{Memory: 4}
	for i := 0; i < 6; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 5, Size: 4})
	}
	p.Normalize()
	_, err := Make(Request{Problem: p, Allocator: tmAlloc(), MaxSpills: 2})
	if !errors.Is(err, ErrCannotFit) {
		t.Errorf("err = %v, want ErrCannotFit (cap)", err)
	}
	plan, err := Make(Request{Problem: p, Allocator: tmAlloc(), MaxSpills: 5})
	if err != nil {
		t.Fatalf("5 spills should suffice: %v", err)
	}
	if len(plan.Spilled) != 5 {
		t.Errorf("Spilled = %v, want 5 evictions", plan.Spilled)
	}
}

func TestRequestValidation(t *testing.T) {
	p := &buffers.Problem{Memory: 8, Buffers: []buffers.Buffer{{Start: 0, End: 1, Size: 1}}}
	p.Normalize()
	if _, err := Make(Request{Problem: p}); err == nil {
		t.Error("nil allocator accepted")
	}
	if _, err := Make(Request{Problem: p, Allocator: tmAlloc(), Weights: []int64{1, 2}}); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := Make(Request{Problem: p, Allocator: tmAlloc(), Pinned: []bool{true, false}}); err == nil {
		t.Error("mismatched pinned accepted")
	}
}

func TestSpillMakesRealModelsFitUndersizedMemory(t *testing.T) {
	// Give a model proxy only 85% of its contention peak: unsolvable
	// without spilling, solvable after evicting some buffers.
	for _, name := range []string{"FPN Model", "Segmentation"} {
		m, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Generate(1)
		peak := buffers.Contention(p).Peak()
		p.Memory = peak * 85 / 100
		plan, err := Make(Request{Problem: p, Allocator: tmAlloc()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(plan.Spilled) == 0 {
			t.Errorf("%s: solved under-peak memory without spilling?!", name)
		}
		// Retained set must be valid.
		retained := &buffers.Problem{Memory: p.Memory, Name: p.Name}
		var offs []int64
		for i, b := range p.Buffers {
			if plan.Solution.Offsets[i] >= 0 {
				retained.Buffers = append(retained.Buffers, b)
				offs = append(offs, plan.Solution.Offsets[i])
			}
		}
		retained.Normalize()
		s := &buffers.Solution{Offsets: offs}
		if err := s.Validate(retained); err != nil {
			t.Errorf("%s: invalid retained packing: %v", name, err)
		}
		t.Logf("%s: spilled %d of %d buffers (cost %d) in %d attempts",
			name, len(plan.Spilled), len(p.Buffers), plan.SpillCost, plan.Attempts)
	}
}

func TestSpillIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := &buffers.Problem{Memory: 0}
	for i := 0; i < 30; i++ {
		start := rng.Int63n(20)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start, End: start + 1 + rng.Int63n(10), Size: 1 + rng.Int63n(10),
		})
	}
	p.Normalize()
	p.Memory = buffers.Contention(p).Peak() * 9 / 10
	a, errA := Make(Request{Problem: p, Allocator: tmAlloc()})
	b, errB := Make(Request{Problem: p, Allocator: tmAlloc()})
	if (errA == nil) != (errB == nil) {
		t.Fatalf("nondeterministic outcome: %v vs %v", errA, errB)
	}
	if errA == nil {
		if len(a.Spilled) != len(b.Spilled) {
			t.Fatalf("nondeterministic spills: %v vs %v", a.Spilled, b.Spilled)
		}
		for i := range a.Spilled {
			if a.Spilled[i] != b.Spilled[i] {
				t.Fatalf("spill order differs: %v vs %v", a.Spilled, b.Spilled)
			}
		}
	}
}

// blocker parks in AllocateContext until its context is cancelled — a
// stand-in for a long search the spill planner must be able to abandon.
type blocker struct {
	started, observed chan struct{}
}

func (b *blocker) Name() string { return "blocker" }

func (b *blocker) Allocate(p *buffers.Problem) (*buffers.Solution, error) {
	return nil, errors.New("blocker: no context, cannot run")
}

func (b *blocker) AllocateContext(ctx context.Context, p *buffers.Problem) (*buffers.Solution, error) {
	close(b.started)
	select {
	case <-ctx.Done():
		close(b.observed)
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		return nil, errors.New("blocker: never cancelled")
	}
}

// TestContextAllocatorObservesCancel: Make forwards Request.Ctx into a
// ContextAllocator, so cancelling mid-solve stops the attempt and the plan
// reports ErrCancelled.
func TestContextAllocatorObservesCancel(t *testing.T) {
	p := &buffers.Problem{Memory: 8, Buffers: []buffers.Buffer{
		{Start: 0, End: 5, Size: 4},
		{Start: 0, End: 5, Size: 4},
	}}
	p.Normalize()
	b := &blocker{started: make(chan struct{}), observed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-b.started
		cancel()
	}()
	_, err := Make(Request{Problem: p, Allocator: b, Ctx: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	select {
	case <-b.observed:
	default:
		t.Fatal("allocator returned without observing the cancelled context")
	}
}

// TestDeadlineStopsPlanning: once Request.Deadline has passed, Make fails
// with ErrDeadline instead of reading every budget-starved attempt as "does
// not fit" and evicting its way down to an empty packing.
func TestDeadlineStopsPlanning(t *testing.T) {
	p := &buffers.Problem{Memory: 4}
	for i := 0; i < 6; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 5, Size: 4})
	}
	p.Normalize()
	alloc := core.Allocator{Config: core.Config{MaxSteps: 100000, Deadline: time.Now().Add(-time.Second)}}
	plan, err := Make(Request{Problem: p, Allocator: alloc, Deadline: alloc.Config.Deadline})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("plan %+v err %v, want ErrDeadline", plan, err)
	}
}

// chooseVictimOracle is chooseVictim as a sort of every candidate by the
// same comparator, the version the minimum scan replaced.
func chooseVictimOracle(sub *buffers.Problem, back []int, weights []int64, pinned func(int) bool) int {
	if len(sub.Buffers) == 0 {
		return -1
	}
	var peakStep buffers.ContentionStep
	for _, s := range buffers.Contention(sub).Steps {
		if s.Contention > peakStep.Contention {
			peakStep = s
		}
	}
	type cand struct {
		id    int
		score float64
		size  int64
	}
	var cands []cand
	for subID, b := range sub.Buffers {
		orig := back[subID]
		if !pinned(orig) && b.Start < peakStep.End && peakStep.Start < b.End {
			cands = append(cands, cand{subID, float64(weights[orig]) / float64(b.Size), b.Size})
		}
	}
	if len(cands) == 0 {
		return -1
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].id < cands[j].id
	})
	return cands[0].id
}

// TestChooseVictimMatchesSort: the one-pass minimum over the retained
// buffers picks the victim the sort over a fresh subset picked, on
// instances drawn with many ties in score and size. The profile is the
// whole problem's with the evicted buffers removed, as Make keeps it.
func TestChooseVictimMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := rng.Intn(24)
		p := &buffers.Problem{Memory: 64}
		for j := 0; j < 2*n; j++ {
			start := rng.Int63n(8)
			p.Buffers = append(p.Buffers, buffers.Buffer{Start: start, End: start + 1 + rng.Int63n(6), Size: 4 << rng.Intn(3)})
		}
		p.Normalize()
		prof := buffers.Contention(p)
		var retained []int
		for j := range p.Buffers {
			if rng.Intn(2) == 0 {
				retained = append(retained, j)
			} else {
				prof.Remove(p.Buffers[j])
			}
		}
		weights := make([]int64, 2*n)
		for k := range weights {
			weights[k] = int64(rng.Intn(4)) * 4
		}
		pinnedSet := rng.Int63()
		pinned := func(orig int) bool { return pinnedSet>>(orig%63)&1 == 1 && orig%5 == 0 }
		got := chooseVictim(p, retained, prof, weights, pinned)
		if want := chooseVictimOracle(p.Subset(retained), retained, weights, pinned); got != want {
			t.Fatalf("instance %d: chooseVictim = %d, sorted choice %d", i, got, want)
		}
	}
}

// makeUngated is Make before the futility gate, kept as the oracle: every
// attempt calls the allocator, and each retained set's victim is chosen
// from its own contention profile.
func makeUngated(req Request) (*Plan, error) {
	p := req.Problem
	n := len(p.Buffers)
	weights := req.Weights
	if weights == nil {
		weights = make([]int64, n)
		for i, b := range p.Buffers {
			weights[i] = b.Size
		}
	}
	pinned := func(i int) bool { return req.Pinned != nil && req.Pinned[i] }
	retained := make([]int, n)
	for i := range retained {
		retained[i] = i
	}
	plan := &Plan{}
	for {
		sub := p.Subset(retained)
		plan.Attempts++
		sol, err := allocate(req, sub)
		if err == nil {
			full := buffers.NewSolution(n)
			for subID, off := range sol.Offsets {
				full.Offsets[retained[subID]] = off
			}
			plan.Solution = full
			return plan, nil
		}
		if errors.Is(err, ErrAllocatorPanic) || errors.Is(err, core.ErrPanic) {
			return nil, err
		}
		if req.MaxSpills > 0 && len(plan.Spilled) >= req.MaxSpills {
			return nil, fmt.Errorf("%w: spill cap %d reached", ErrCannotFit, req.MaxSpills)
		}
		k := chooseVictim(p, retained, buffers.Contention(sub), weights, pinned)
		if k < 0 {
			return nil, ErrCannotFit
		}
		victim := retained[k]
		retained = slices.Delete(retained, k, k+1)
		plan.Spilled = append(plan.Spilled, victim)
		plan.SpillCost += weights[victim]
	}
}

// counting is an allocator that counts its calls.
type counting struct {
	core.Allocator
	calls int
}

func (c *counting) Allocate(p *buffers.Problem) (*buffers.Solution, error) {
	c.calls++
	return c.Allocator.Allocate(p)
}

// gateInstance draws a small problem with aligned buffers and memory from
// 85% of its contention peak to a little above it, where the contention
// peak, the alignment-slot bound, or neither proves it infeasible.
func gateInstance(rng *rand.Rand) *buffers.Problem {
	p := &buffers.Problem{}
	for i := 0; i < 6+rng.Intn(14); i++ {
		start := rng.Int63n(10)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start, End: start + 1 + rng.Int63n(6),
			Size: 1 + rng.Int63n(24), Align: []int64{1, 4, 8, 16}[rng.Intn(4)],
		})
	}
	p.Normalize()
	peak := buffers.Contention(p).Peak()
	p.Memory = max(peak*85/100+rng.Int63n(peak*15/100+12), 16)
	return p
}

// TestGatedPlannerMatchesUngated: the gated planner returns exactly the
// ungated planner's plan — spilled buffers, cost, attempts and offsets —
// while calling the allocator less often. Half of the instances run as
// the pipeline runs them: the search already failed on the whole problem
// with the planner's own budget.
func TestGatedPlannerMatchesUngated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var gatedCalls, ungatedCalls, searchFailed int
	for i := 0; i < 300; i++ {
		p := gateInstance(rng)
		if p.Validate() != nil {
			continue
		}
		cfg := core.Config{MaxSteps: 2000, Parallelism: 1}
		req := Request{Problem: p}
		if rng.Intn(2) == 0 {
			res := core.Solve(p, cfg)
			req.SearchFailed = res.Status == telamon.Budget || res.Status == telamon.Exhausted
			if req.SearchFailed {
				searchFailed++
			}
		}
		gated, ungated := &counting{Allocator: core.Allocator{Config: cfg}}, &counting{Allocator: core.Allocator{Config: cfg}}
		req.Allocator = gated
		got, errGot := Make(req)
		req.Allocator = ungated
		want, errWant := makeUngated(req)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("instance %d: err %v, ungated %v", i, errGot, errWant)
		}
		if errGot == nil {
			if !slices.Equal(got.Spilled, want.Spilled) || got.SpillCost != want.SpillCost ||
				got.Attempts != want.Attempts || !slices.Equal(got.Solution.Offsets, want.Solution.Offsets) {
				t.Fatalf("instance %d: plan %+v, ungated %+v", i, got, want)
			}
			if got.Searched != gated.calls {
				t.Fatalf("instance %d: Searched %d, allocator called %d times", i, got.Searched, gated.calls)
			}
		}
		if gated.calls > ungated.calls {
			t.Fatalf("instance %d: gated planner called the allocator %d times, ungated %d", i, gated.calls, ungated.calls)
		}
		gatedCalls += gated.calls
		ungatedCalls += ungated.calls
	}
	t.Logf("allocator calls: gated %d, ungated %d; %d instances with a failed search", gatedCalls, ungatedCalls, searchFailed)
	if gatedCalls >= ungatedCalls || searchFailed == 0 {
		t.Errorf("gated %d calls, ungated %d, %d failed searches: the corpus no longer exercises the gate",
			gatedCalls, ungatedCalls, searchFailed)
	}
}

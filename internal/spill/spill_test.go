package spill

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/core"
	"telamalloc/internal/heuristics"
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

// TestChooseVictimMatchesSort: the one-pass minimum picks the victim the
// sort picked, on instances drawn with many ties in score and size.
func TestChooseVictimMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := rng.Intn(24)
		p := &buffers.Problem{Memory: 64}
		back := make([]int, n)
		weights := make([]int64, 2*n)
		for j := 0; j < n; j++ {
			start := rng.Int63n(8)
			p.Buffers = append(p.Buffers, buffers.Buffer{Start: start, End: start + 1 + rng.Int63n(6), Size: 4 << rng.Intn(3)})
			back[j] = 2*j + rng.Intn(2)
		}
		for k := range weights {
			weights[k] = int64(rng.Intn(4)) * 4
		}
		pinnedSet := rng.Int63()
		pinned := func(orig int) bool { return pinnedSet>>(orig%63)&1 == 1 && orig%5 == 0 }
		if got, want := chooseVictim(p, back, weights, pinned), chooseVictimOracle(p, back, weights, pinned); got != want {
			t.Fatalf("instance %d: chooseVictim = %d, sorted choice %d", i, got, want)
		}
	}
}

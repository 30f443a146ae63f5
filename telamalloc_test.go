package telamalloc_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"telamalloc"
)

func figure1() telamalloc.Problem {
	return telamalloc.Problem{
		Name:   "figure-1",
		Memory: 10,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 12, Size: 3},
			{Start: 0, End: 7, Size: 3},
			{Start: 3, End: 7, Size: 2},
			{Start: 7, End: 12, Size: 3},
			{Start: 12, End: 16, Size: 5},
			{Start: 12, End: 16, Size: 3},
			{Start: 2, End: 9, Size: 2},
			{Start: 0, End: 3, Size: 2},
			{Start: 16, End: 20, Size: 6},
			{Start: 16, End: 20, Size: 2},
		},
	}
}

func TestAllocateFigure1(t *testing.T) {
	p := figure1()
	sol, stats, err := telamalloc.Allocate(p)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	if sol.PeakUsage(p) > p.Memory {
		t.Errorf("peak %d exceeds memory %d", sol.PeakUsage(p), p.Memory)
	}
	if stats.Steps == 0 || stats.Placements != int64(len(p.Buffers)) {
		t.Errorf("stats look wrong: %+v", stats)
	}
}

func TestAllocateInvalidProblem(t *testing.T) {
	p := telamalloc.Problem{Memory: 0}
	if _, _, err := telamalloc.Allocate(p); !errors.Is(err, telamalloc.ErrInvalidProblem) {
		t.Errorf("err = %v, want ErrInvalidProblem", err)
	}
	p = telamalloc.Problem{Memory: 4, Buffers: []telamalloc.Buffer{{Start: 5, End: 2, Size: 1}}}
	if _, _, err := telamalloc.Allocate(p); !errors.Is(err, telamalloc.ErrInvalidProblem) {
		t.Errorf("err = %v, want ErrInvalidProblem", err)
	}
}

func TestAllocateInfeasible(t *testing.T) {
	p := telamalloc.Problem{
		Memory: 4,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
	}
	if _, _, err := telamalloc.Allocate(p); !errors.Is(err, telamalloc.ErrNoSolution) {
		t.Errorf("err = %v, want ErrNoSolution", err)
	}
	if _, err := telamalloc.SolveExact(p, 0, 0); !errors.Is(err, telamalloc.ErrNoSolution) {
		t.Errorf("SolveExact err = %v, want ErrNoSolution", err)
	}
}

func TestAllocateBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := telamalloc.Problem{Memory: 0}
	for i := 0; i < 40; i++ {
		start := rng.Int63n(10)
		p.Buffers = append(p.Buffers, telamalloc.Buffer{
			Start: start, End: start + 2 + rng.Int63n(10), Size: 2 + rng.Int63n(8),
		})
	}
	p.Memory = telamalloc.MinMemoryLowerBound(p)
	_, _, err := telamalloc.Allocate(p, telamalloc.WithMaxSteps(3))
	if err == nil {
		return // solved within 3 steps: fine
	}
	if !errors.Is(err, telamalloc.ErrBudget) && !errors.Is(err, telamalloc.ErrNoSolution) {
		t.Errorf("err = %v", err)
	}
}

func TestBaselineAllocators(t *testing.T) {
	p := figure1()
	p.Memory = 64 // generous so both baselines succeed
	for name, alloc := range map[string]func(telamalloc.Problem) (telamalloc.Solution, error){
		"greedy":  telamalloc.AllocateGreedy,
		"bestfit": telamalloc.AllocateBestFit,
	} {
		sol, err := alloc(p)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := sol.Validate(p); err != nil {
			t.Errorf("%s: invalid solution: %v", name, err)
		}
	}
}

func TestSolveExactAndMinimize(t *testing.T) {
	p := telamalloc.Problem{
		Memory: 64,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 10, Size: 4},
			{Start: 0, End: 10, Size: 4},
			{Start: 0, End: 10, Size: 4},
		},
	}
	sol, err := telamalloc.SolveExact(p, 0, time.Second)
	if err != nil {
		t.Fatalf("SolveExact: %v", err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
	limit, minSol, err := telamalloc.MinimizeMemory(p, 0, 5*time.Second)
	if err != nil {
		t.Fatalf("MinimizeMemory: %v", err)
	}
	if limit != 12 {
		t.Errorf("limit = %d, want 12", limit)
	}
	q := p
	q.Memory = limit
	if err := minSol.Validate(q); err != nil {
		t.Error(err)
	}
	if lb := telamalloc.MinMemoryLowerBound(p); lb != 12 {
		t.Errorf("lower bound = %d, want 12", lb)
	}
}

func TestOptionsCombinations(t *testing.T) {
	p := figure1()
	p.Memory = 12 // slightly loose so every variant can solve
	for name, opts := range map[string][]telamalloc.Option{
		"nosplit": {telamalloc.WithoutSubproblemSplit()},
		"timeout": {telamalloc.WithTimeout(10 * time.Second)},
		"all": {
			telamalloc.WithoutSubproblemSplit(),
			telamalloc.WithMaxSteps(100000),
		},
	} {
		sol, _, err := telamalloc.Allocate(p, opts...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := sol.Validate(p); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
	}
}

func TestBacktrackModelRoundTrip(t *testing.T) {
	// Train a model on tight random problems, save, load, and use it.
	var train []telamalloc.Problem
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 8; k++ {
		p := telamalloc.Problem{}
		for i := 0; i < 24; i++ {
			start := rng.Int63n(16)
			p.Buffers = append(p.Buffers, telamalloc.Buffer{
				Start: start, End: start + 1 + rng.Int63n(10), Size: 1 + rng.Int63n(8),
			})
		}
		p.Memory = telamalloc.MinMemoryLowerBound(p)
		train = append(train, p)
	}
	model, err := telamalloc.TrainBacktrackModel(train, 1, 50000, 15000)
	if err != nil {
		t.Skipf("no trainable data on these seeds: %v", err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := telamalloc.LoadBacktrackModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := train[0]
	sol, _, err := telamalloc.Allocate(p,
		telamalloc.WithBacktrackModel(loaded),
		telamalloc.WithMaxSteps(100000))
	if err == nil {
		if verr := sol.Validate(p); verr != nil {
			t.Fatalf("ML-guided solution invalid: %v", verr)
		}
	}
}

func TestAllocatePropertyValidOrError(t *testing.T) {
	// Property: Allocate either errors or returns a valid packing — never a
	// bogus success.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := telamalloc.Problem{}
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			start := rng.Int63n(12)
			p.Buffers = append(p.Buffers, telamalloc.Buffer{
				Start: start,
				End:   start + 1 + rng.Int63n(8),
				Size:  1 + rng.Int63n(8),
				Align: []int64{0, 0, 4}[rng.Intn(3)],
			})
		}
		lb := telamalloc.MinMemoryLowerBound(p)
		p.Memory = lb + rng.Int63n(lb+1)
		sol, _, err := telamalloc.Allocate(p, telamalloc.WithMaxSteps(50000))
		if err != nil {
			return true
		}
		return sol.Validate(p) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package core

import (
	"errors"
	"reflect"
	"testing"

	"telamalloc/internal/buffers"
	"telamalloc/internal/telamon"
	"telamalloc/internal/workload"
)

// parallelisms are the pool sizes the determinism contract is checked at.
var parallelisms = []int{2, 4, 8}

// TestParallelMatchesSequential locks the tentpole contract: at every
// parallelism level, Solve returns the same Status and byte-identical
// Solution.Offsets as the sequential solve, on multi-component workloads of
// varying shape and budget.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		problem  *buffers.Problem
		maxSteps int64
	}{
		{"4x20-tight", workload.MultiComponent(4, 20, 105, 1), 0},
		{"8x12-tight", workload.MultiComponent(8, 12, 105, 2), 0},
		{"6x16-budgeted", workload.MultiComponent(6, 16, 110, 3), 200000},
		{"2x30-loose", workload.MultiComponent(2, 30, 130, 4), 0},
		{"single-component", workload.FullOverlap(60, 5), 0},
		{"tiny-budget", workload.MultiComponent(5, 10, 115, 6), 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := Solve(tc.problem, Config{MaxSteps: tc.maxSteps, Parallelism: 1})
			if seq.Status == telamon.Solved {
				if err := seq.Solution.Validate(tc.problem); err != nil {
					t.Fatalf("sequential solution invalid: %v", err)
				}
			}
			for _, par := range parallelisms {
				res := Solve(tc.problem, Config{MaxSteps: tc.maxSteps, Parallelism: par})
				if res.Status != seq.Status {
					t.Errorf("parallelism %d: status %v, sequential %v", par, res.Status, seq.Status)
					continue
				}
				if seq.Status != telamon.Solved {
					if res.Solution != nil {
						t.Errorf("parallelism %d: non-nil solution on %v", par, res.Status)
					}
					continue
				}
				if !reflect.DeepEqual(res.Solution.Offsets, seq.Solution.Offsets) {
					t.Errorf("parallelism %d: offsets differ from sequential", par)
				}
				if res.Stats != seq.Stats {
					t.Errorf("parallelism %d: stats diverge:\n par %+v\n seq %+v", par, res.Stats, seq.Stats)
				}
				if res.Subproblems != seq.Subproblems || len(res.Groups) != res.Subproblems {
					t.Errorf("parallelism %d: %d groups reported for %d subproblems",
						par, len(res.Groups), res.Subproblems)
				}
			}
		})
	}
}

// infeasibleMiddle builds three independent components where the middle one
// cannot be packed (two size-60 buffers overlapping under a limit of 100 —
// each individually fits, so validation passes), flanked by easy feasible
// components.
func infeasibleMiddle() *buffers.Problem {
	p := &buffers.Problem{Memory: 100, Name: "infeasible-middle"}
	add := func(start, end, size int64) {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: start, End: end, Size: size})
	}
	// Component 0: feasible.
	add(0, 10, 40)
	add(0, 10, 40)
	add(2, 8, 20)
	// Component 1: provably infeasible (60 + 60 > 100 while overlapping).
	add(20, 30, 60)
	add(20, 30, 60)
	// Component 2: feasible.
	add(40, 50, 50)
	add(42, 48, 30)
	p.Normalize()
	return p
}

// TestParallelInfeasibleMiddleGroup checks that the first failing group by
// group index — not wall-clock race order — determines the result at every
// parallelism level, and that failed solves carry no solution.
func TestParallelInfeasibleMiddleGroup(t *testing.T) {
	p := infeasibleMiddle()
	for _, par := range append([]int{1}, parallelisms...) {
		res := Solve(p, Config{Parallelism: par})
		if res.Status != telamon.Exhausted {
			t.Errorf("parallelism %d: status %v, want exhausted", par, res.Status)
		}
		if res.Solution != nil {
			t.Errorf("parallelism %d: failed solve returned a non-nil solution", par)
		}
		if res.Subproblems != 3 {
			t.Errorf("parallelism %d: %d subproblems, want 3", par, res.Subproblems)
		}
		// The determining group must be the middle one: group 0 solved,
		// group 1 exhausted; group 2's report is absent or cancelled.
		if len(res.Groups) != 3 {
			t.Fatalf("parallelism %d: %d group reports, want 3", par, len(res.Groups))
		}
		if res.Groups[0].Status != telamon.Solved {
			t.Errorf("parallelism %d: group 0 status %v, want solved", par, res.Groups[0].Status)
		}
		if res.Groups[1].Status != telamon.Exhausted {
			t.Errorf("parallelism %d: group 1 status %v, want exhausted", par, res.Groups[1].Status)
		}
	}
}

// TestFailedSolveReturnsNilSolution is the regression test for the
// zero-offset bug: a non-Solved result used to carry a solution whose
// unfilled offsets were 0, indistinguishable from real placements.
func TestFailedSolveReturnsNilSolution(t *testing.T) {
	// Unsatisfiable single component.
	p := &buffers.Problem{Memory: 100}
	p.Buffers = []buffers.Buffer{
		{Start: 0, End: 10, Size: 60},
		{Start: 0, End: 10, Size: 60},
	}
	p.Normalize()
	res := Solve(p, Config{})
	if res.Status != telamon.Exhausted {
		t.Fatalf("status %v, want exhausted", res.Status)
	}
	if res.Solution != nil {
		t.Fatalf("exhausted solve returned solution %+v", res.Solution)
	}

	// Budget-limited failure must also carry no solution.
	hard := workload.FullOverlap(120, 1)
	res = Solve(hard, Config{MaxSteps: 3})
	if res.Status == telamon.Solved {
		t.Skip("instance solved within 3 steps; cannot exercise budget path")
	}
	if res.Solution != nil {
		t.Fatalf("%v solve returned a non-nil solution", res.Status)
	}
}

// TestInvalidInputReportsInvalid is the regression test for the swallowed
// validation error: invalid input used to surface as Exhausted.
func TestInvalidInputReportsInvalid(t *testing.T) {
	bad := &buffers.Problem{Memory: 0}
	bad.Buffers = []buffers.Buffer{{Start: 0, End: 1, Size: 4}}
	res := Solve(bad, Config{})
	if res.Status != telamon.Invalid {
		t.Errorf("status %v, want invalid", res.Status)
	}
	if res.Err == nil {
		t.Error("Result.Err is nil for invalid input")
	}
	if !errors.Is(res.Err, buffers.ErrBadMemory) {
		t.Errorf("Err = %v, want ErrBadMemory", res.Err)
	}

	// Allocator.Allocate must return the validation error verbatim.
	_, err := Allocator{}.Allocate(bad)
	if !errors.Is(err, buffers.ErrBadMemory) {
		t.Errorf("Allocate err = %v, want ErrBadMemory", err)
	}

	negSize := &buffers.Problem{Memory: 64}
	negSize.Buffers = []buffers.Buffer{{Start: 0, End: 1, Size: -3}}
	if _, err := (Allocator{}).Allocate(negSize); !errors.Is(err, buffers.ErrNegativeSize) {
		t.Errorf("Allocate err = %v, want ErrNegativeSize", err)
	}
}

// TestSplitBudget pins the fair-share arithmetic of the step pot.
func TestSplitBudget(t *testing.T) {
	cases := []struct {
		pot  int64
		n    int
		want []int64
	}{
		{0, 3, []int64{0, 0, 0}},    // unlimited pot: unlimited shares
		{10, 3, []int64{4, 3, 3}},   // remainder to the earliest groups
		{9, 3, []int64{3, 3, 3}},    // even split
		{2, 4, []int64{1, 1, 1, 1}}, // pot < n: at least one step each
		{100, 1, []int64{100}},      // single group takes the whole pot
	}
	for _, tc := range cases {
		if got := splitBudget(tc.pot, tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitBudget(%d, %d) = %v, want %v", tc.pot, tc.n, got, tc.want)
		}
	}
}

// TestBudgetPotRetry verifies that unused steps flow back to the pot: a
// problem with one hard and several trivial components must still solve
// under a global budget whose fair share alone would starve the hard group.
func TestBudgetPotRetry(t *testing.T) {
	// One dense cluster plus many trivial singletons. Splitting the global
	// budget evenly gives the cluster only a small share; the singletons
	// return their unused steps, and the retry must finish the job.
	p := &buffers.Problem{Name: "pot-retry"}
	cluster := workload.FullOverlap(40, 3)
	p.Buffers = append(p.Buffers, cluster.Buffers...)
	var clock int64 = 100
	for i := 0; i < 39; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: clock, End: clock + 1, Size: 8})
		clock += 2
	}
	p.Memory = cluster.Memory
	p.Normalize()

	// Sanity: fair share alone is too small for the cluster.
	steps := Solve(p, Config{Parallelism: 1}).Stats.Steps
	budget := steps + 60 // enough overall, far too little per-group (40 groups)
	for _, par := range append([]int{1}, parallelisms...) {
		res := Solve(p, Config{MaxSteps: budget, Parallelism: par})
		if res.Status != telamon.Solved {
			t.Errorf("parallelism %d: status %v with pot %d (full solve takes %d steps)",
				par, res.Status, budget, steps)
			continue
		}
		retried := false
		for _, g := range res.Groups {
			if g.Retried {
				retried = true
			}
		}
		if !retried {
			t.Errorf("parallelism %d: expected at least one leftover-funded retry", par)
		}
	}
}

// TestFailedSolveCountsLaterGroups is the regression test for the step
// undercount: at Parallelism 1 a Budget failure cancels nothing, so the
// groups after it still search, and their steps must reach Result.Stats.
func TestFailedSolveCountsLaterGroups(t *testing.T) {
	res := Solve(workload.MultiComponent(4, 15, 105, 1), Config{MaxSteps: 27, Parallelism: 1})
	if res.Status != telamon.Budget {
		t.Fatalf("status %v, want budget", res.Status)
	}
	var sum int64
	for _, g := range res.Groups {
		sum += g.Steps
	}
	if res.Stats.Steps != sum || sum != 27 {
		t.Errorf("Stats.Steps %d, groups sum to %d (%+v), want both 27", res.Stats.Steps, sum, res.Groups)
	}
}

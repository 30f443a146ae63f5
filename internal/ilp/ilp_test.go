package ilp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"telamalloc/internal/buffers"
)

func solveOK(t *testing.T, p *buffers.Problem, opts Options) *buffers.Solution {
	t.Helper()
	res := Solve(p, nil, opts)
	if res.Status != Solved {
		t.Fatalf("Solve status = %v, want solved (steps=%d)", res.Status, res.Steps)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("solver returned invalid packing: %v", err)
	}
	return res.Solution
}

func TestSolveTrivial(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{{Start: 0, End: 5, Size: 4}},
		Memory:  4,
	}
	p.Normalize()
	solveOK(t, p, Options{})
}

func TestSolveTightPacking(t *testing.T) {
	// Four fully overlapping buffers exactly filling memory.
	p := &buffers.Problem{Memory: 16}
	for i := 0; i < 4; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 10, Size: 4})
	}
	p.Normalize()
	sol := solveOK(t, p, Options{})
	if peak := sol.PeakUsage(p); peak != 16 {
		t.Errorf("PeakUsage = %d, want 16", peak)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := &buffers.Problem{Memory: 8}
	for i := 0; i < 3; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 10, Size: 4})
	}
	p.Normalize()
	res := Solve(p, nil, Options{})
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

// TestSolveRootConflictWithNothingToBranch: root propagation wipes this
// instance out (FuzzAlignSlotBound's ad42ce9fb908db2d) and fixes every
// pair's order on the way, so no pair is left to branch on. The solver must
// report it infeasible, not hand back the wiped-out bounds as a packing.
func TestSolveRootConflictWithNothingToBranch(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 1, Size: 1, Align: 4},
			{Start: 0, End: 2, Size: 2, Align: 2},
			{Start: 2, End: 3, Size: 2, Align: 4},
			{Start: 0, End: 2, Size: 9, Align: 2},
			{Start: 0, End: 4, Size: 1, Align: 8},
		},
		Memory: 13,
	}
	p.Normalize()
	for _, fixed := range [][]int64{nil, {-1, -1, 0, -1, -1}} {
		if res := SolveWithFixed(p, nil, fixed, Options{}); res.Status != Infeasible {
			t.Errorf("fixed %v: status %v with offsets %v, want infeasible", fixed, res.Status, res.Solution)
		}
	}
}

func TestSolveFigure1Instance(t *testing.T) {
	// A rendition of the paper's Figure 1: the blue buffer (7) must go
	// between the long buffers; a greedy skyline would fail at this memory
	// limit, the exact solver must not.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 6, Size: 2},  // (1) long, early
			{Start: 0, End: 4, Size: 2},  // (2)
			{Start: 4, End: 6, Size: 2},  // (4)
			{Start: 1, End: 5, Size: 2},  // (7) the pivotal block
			{Start: 0, End: 2, Size: 2},  // (8)
			{Start: 6, End: 10, Size: 4}, // second hump
			{Start: 6, End: 10, Size: 2},
		},
		Memory: 8,
	}
	p.Normalize()
	solveOK(t, p, Options{})
}

func TestSolveRespectsAlignment(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 3},
			{Start: 0, End: 10, Size: 4, Align: 8},
			{Start: 0, End: 10, Size: 4, Align: 4},
		},
		Memory: 16,
	}
	p.Normalize()
	sol := solveOK(t, p, Options{})
	if sol.Offsets[1]%8 != 0 {
		t.Errorf("aligned buffer placed at %d", sol.Offsets[1])
	}
	if sol.Offsets[2]%4 != 0 {
		t.Errorf("aligned buffer placed at %d", sol.Offsets[2])
	}
}

func TestSolveBudget(t *testing.T) {
	// A hard infeasible instance with the step budget forced tiny.
	p := &buffers.Problem{Memory: 100}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: rng.Int63n(5), End: 5 + rng.Int63n(10), Size: 30 + rng.Int63n(20),
		})
	}
	p.Normalize()
	res := Solve(p, nil, Options{MaxSteps: 3})
	if res.Status == Solved {
		t.Skip("instance unexpectedly easy") // extremely unlikely
	}
	if res.Status != Budget && res.Status != Infeasible {
		t.Errorf("status = %v", res.Status)
	}
	if res.Status == Budget && res.Steps > 3+1 {
		t.Errorf("steps = %d exceeded budget", res.Steps)
	}
}

func TestBothBranchRulesAgree(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomFeasibleish(rng, 8)
		a := Solve(p, nil, Options{Rule: BranchMostConstraining, MaxSteps: 200000})
		b := Solve(p, nil, Options{Rule: BranchFirstUnresolved, MaxSteps: 200000})
		if a.Status == Budget || b.Status == Budget {
			return true // can't compare
		}
		return (a.Status == Solved) == (b.Status == Solved)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomFeasibleish builds a small random instance whose memory is between
// the contention peak and the total size, so both outcomes occur.
func randomFeasibleish(rng *rand.Rand, n int) *buffers.Problem {
	p := &buffers.Problem{}
	for i := 0; i < n; i++ {
		start := rng.Int63n(12)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start,
			End:   start + 1 + rng.Int63n(10),
			Size:  1 + rng.Int63n(8),
		})
	}
	p.Normalize()
	peak := buffers.Contention(p).Peak()
	p.Memory = peak + rng.Int63n(peak+1)
	return p
}

func TestSolveWithFixed(t *testing.T) {
	// Two buffers, memory 8. Fixing buffer 0 mid-memory leaves no room.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 4},
			{Start: 0, End: 10, Size: 4},
		},
		Memory: 8,
	}
	p.Normalize()
	res := SolveWithFixed(p, nil, []int64{2, -1}, Options{})
	if res.Status != Infeasible {
		t.Errorf("fixed-at-2 status = %v, want infeasible", res.Status)
	}
	res = SolveWithFixed(p, nil, []int64{0, -1}, Options{})
	if res.Status != Solved {
		t.Fatalf("fixed-at-0 status = %v, want solved", res.Status)
	}
	if res.Solution.Offsets[0] != 0 {
		t.Errorf("fixed buffer moved to %d", res.Solution.Offsets[0])
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestMinimizeMemory(t *testing.T) {
	// Three size-4 buffers fully overlapping: optimum is exactly 12.
	p := &buffers.Problem{Memory: 64}
	for i := 0; i < 3; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 10, Size: 4})
	}
	p.Normalize()
	limit, sol, ok := MinimizeMemory(p, nil, Options{})
	if !ok {
		t.Fatal("MinimizeMemory failed")
	}
	if limit != 12 {
		t.Errorf("limit = %d, want 12", limit)
	}
	q := p.Clone()
	q.Memory = limit
	if err := sol.Validate(q); err != nil {
		t.Errorf("returned solution invalid at its own limit: %v", err)
	}
}

func TestMinimizeMemoryNeedsMoreThanContentionPeak(t *testing.T) {
	// Classic fragmentation instance where the optimum exceeds the
	// contention lower bound: staircase of three buffers.
	//   A [0,2) size 2, B [1,3) size 2, C [2,4) size 2, D [0,4) size 1
	// Contention peak is 5 but packing the staircase plus the long thin
	// buffer can need more depending on sizes; verify MinimizeMemory
	// returns a feasible limit >= peak.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 2, Size: 2},
			{Start: 1, End: 3, Size: 2},
			{Start: 2, End: 4, Size: 2},
			{Start: 0, End: 4, Size: 1},
		},
		Memory: 32,
	}
	p.Normalize()
	peak := buffers.Contention(p).Peak()
	limit, _, ok := MinimizeMemory(p, nil, Options{})
	if !ok {
		t.Fatal("MinimizeMemory failed")
	}
	if limit < peak {
		t.Errorf("limit %d below contention peak %d", limit, peak)
	}
}

func TestSolveMatchesBruteForceFeasibility(t *testing.T) {
	// Property: on tiny instances, the exact solver agrees with a brute
	// force enumeration of all position combinations.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		p := &buffers.Problem{Memory: 6}
		for i := 0; i < n; i++ {
			start := rng.Int63n(4)
			p.Buffers = append(p.Buffers, buffers.Buffer{
				Start: start,
				End:   start + 1 + rng.Int63n(4),
				Size:  1 + rng.Int63n(4),
			})
		}
		p.Normalize()
		res := Solve(p, nil, Options{})
		want := bruteForceFeasible(p)
		return (res.Status == Solved) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func bruteForceFeasible(p *buffers.Problem) bool {
	n := len(p.Buffers)
	offsets := make([]int64, n)
	var try func(i int) bool
	try = func(i int) bool {
		if i == n {
			s := &buffers.Solution{Offsets: offsets}
			return s.Validate(p) == nil
		}
		for pos := int64(0); pos+p.Buffers[i].Size <= p.Memory; pos++ {
			offsets[i] = pos
			if try(i + 1) {
				return true
			}
		}
		return false
	}
	return try(0)
}

// hardInstance is small enough to validate but hard enough that a
// microsecond-scale budget expires mid-search: many same-size buffers
// fighting over a near-peak limit.
func hardInstance() *buffers.Problem {
	p := &buffers.Problem{Memory: 64}
	for i := 0; i < 12; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 8, Size: 5})
	}
	p.Normalize()
	return p
}

// TestTimeoutResolvedAtSolveStart: an Options value with a Timeout must be
// reusable — the clock starts at each Solve call, not when the struct was
// built. The regression this pins: benchmarks (and any caller holding an
// Options value) used to bake a Deadline at construction, so every solve
// after the first ran with an already-spent budget.
func TestTimeoutResolvedAtSolveStart(t *testing.T) {
	p := &buffers.Problem{Buffers: []buffers.Buffer{{Start: 0, End: 4, Size: 8}}, Memory: 8}
	p.Normalize()
	opts := Options{Timeout: 50 * time.Millisecond}
	// Sleep longer than the timeout between building the options and
	// solving. With construction-time resolution this solve would start
	// expired; with start-time resolution it has its full budget.
	time.Sleep(80 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if res := Solve(p, nil, opts); res.Status != Solved {
			t.Fatalf("solve %d with a held Options value: status %v, want solved", i, res.Status)
		}
	}
}

// TestTimeoutExpires: a tiny Timeout on a hard instance must surface as
// Budget, the same status an exhausted step pot reports.
func TestTimeoutExpires(t *testing.T) {
	res := Solve(hardInstance(), nil, Options{Timeout: time.Microsecond})
	if res.Status != Budget {
		t.Fatalf("status %v, want budget-exceeded", res.Status)
	}
}

// TestTimeoutEarliestWinsWithDeadline: when both are set, the sooner bound
// governs, whichever field it came from.
func TestTimeoutEarliestWinsWithDeadline(t *testing.T) {
	p := hardInstance()
	// Timeout sooner than Deadline: the microsecond pot must lose the race
	// long before the generous deadline would.
	res := Solve(p, nil, Options{Timeout: time.Microsecond, Deadline: time.Now().Add(time.Hour)})
	if res.Status != Budget {
		t.Fatalf("sooner timeout: status %v, want budget-exceeded", res.Status)
	}
	// Deadline sooner than Timeout: an already-expired deadline governs
	// despite the generous timeout.
	res = Solve(p, nil, Options{Timeout: time.Hour, Deadline: time.Now().Add(-time.Second)})
	if res.Status != Budget {
		t.Fatalf("sooner deadline: status %v, want budget-exceeded", res.Status)
	}
}

package core

import (
	"testing"

	"telamalloc/internal/buffers"
	"telamalloc/internal/telamon"
	"telamalloc/internal/workload"
)

// TestFullOverlapWakeupGate pins the CP engine's propagation work on
// Table 1's full-overlap shape. A bound change wakes only the pairs it can
// tighten, so the whole search wakes at most two pairs per disjunction;
// waking every pair of a changed variable costs about n³/3 here instead.
// The bound updates themselves are the search's own and are pinned
// exactly.
func TestFullOverlapWakeupGate(t *testing.T) {
	for _, tc := range []struct {
		n            int
		propagations int64
	}{
		{100, 5049},
		{300, 45149},
	} {
		p := workload.FullOverlap(tc.n, 1)
		res := Solve(p, Config{})
		if res.Status != telamon.Solved {
			t.Fatalf("FullOverlap(%d): status %v", tc.n, res.Status)
		}
		st := res.Stats.SolverStats
		pairs := int64(buffers.ComputeOverlaps(p).PairCount)
		t.Logf("FullOverlap(%d): %d pairs, %d pair wakeups, %d propagations", tc.n, pairs, st.PairWakeups, st.Propagations)
		if st.PairWakeups > 2*pairs {
			t.Errorf("FullOverlap(%d): %d pair wakeups, want at most 2×%d pairs", tc.n, st.PairWakeups, pairs)
		}
		if st.Propagations != tc.propagations {
			t.Errorf("FullOverlap(%d): %d propagations, want %d", tc.n, st.Propagations, tc.propagations)
		}
	}
}

// TestBacktrackingAllocGate: a search step costs at most one allocation
// once the search backtracks. Both fixtures exhaust their step budget:
// every step is in the backtracking regime, and the one-off set-up (CP
// model, phase grouping, policy orders) is spread over 20,000 steps. A
// reason-chain node per bound change, a fresh conflict per failed
// placement, a reflective sort per placement query and a map per decision
// point cost 12-17 allocations per step.
func TestBacktrackingAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *buffers.Problem
	}{
		{"alignment-hostile-40/s1", workload.AlignmentHostile(40, 1)},
		{"Image Model 1/s3@100%", atPeakPct(workload.GenImageModel1(3), 100)},
	} {
		cfg := Config{MaxSteps: 20000, Parallelism: 1}
		var res Result
		allocs := testing.AllocsPerRun(1, func() { res = Solve(tc.p, cfg) })
		if res.Status != telamon.Budget || res.Stats.Backtracks() == 0 {
			t.Fatalf("%s: %v after %d steps and %d backtracks, want a budget-exhausting search",
				tc.name, res.Status, res.Stats.Steps, res.Stats.Backtracks())
		}
		perStep := allocs / float64(res.Stats.Steps)
		t.Logf("%s: %d steps, %.2f allocations per step", tc.name, res.Stats.Steps, perStep)
		if perStep > 1 {
			t.Errorf("%s: %.2f allocations per step, want at most 1", tc.name, perStep)
		}
	}
}

package telamon

import (
	"testing"

	"telamalloc/internal/workload"
)

// minimalPolicy is the minimal policy: unplaced buffers in ID order, one
// per batch, solver placement, default backtracks.
type minimalPolicy struct{}

// Candidates hands out the first unplaced buffer at or after the cursor's
// ID; the cursor after it is the next ID, never 0.
func (minimalPolicy) Candidates(st *State, cursor int, dst []int) ([]int, int) {
	for b := cursor; b < len(st.Prob.Buffers); b++ {
		if !st.Model.Placed(b) {
			return append(dst, b), b + 1
		}
	}
	return dst, -1
}
func (minimalPolicy) Placement(st *State, buf int) (int64, bool) {
	return st.Model.LowestFeasible(buf)
}
func (minimalPolicy) BacktrackTarget(*State, *DecisionPoint) (int, bool) { return 0, false }

// TestTestHookStarvesBudget: a TestHook reporting exhaustion stops the
// search with Budget on the very first check, before any placement.
func TestTestHookStarvesBudget(t *testing.T) {
	p := workload.FullOverlap(20, 1)
	res := Search(p, nil, minimalPolicy{}, Options{TestHook: func() bool { return true }})
	if res.Status != Budget {
		t.Fatalf("status %v, want budget-exceeded", res.Status)
	}
	if res.Stats.Placements != 0 {
		t.Fatalf("%d placements happened under immediate starvation", res.Stats.Placements)
	}
}

// TestTestHookCountsSteps: a hook that starves after N checks lets exactly
// the prefix run — the deterministic per-step firing fault injection needs.
func TestTestHookCountsSteps(t *testing.T) {
	p := workload.FullOverlap(20, 1)
	run := func(allow int64) int64 {
		var calls int64
		hook := func() bool {
			calls++
			return calls > allow
		}
		res := Search(p, nil, minimalPolicy{}, Options{TestHook: hook})
		if res.Status != Budget {
			t.Fatalf("allow %d: status %v, want budget-exceeded", allow, res.Status)
		}
		return res.Stats.Steps
	}
	a, b := run(10), run(30)
	if a >= b {
		t.Fatalf("steps did not grow with allowance: %d then %d", a, b)
	}
}

// TestInternalStatusString locks the new status's rendering.
func TestInternalStatusString(t *testing.T) {
	if got := Internal.String(); got != "internal-error" {
		t.Fatalf("Internal.String() = %q", got)
	}
}

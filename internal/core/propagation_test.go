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

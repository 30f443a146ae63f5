package core

import (
	"testing"

	"telamalloc/internal/telamon"
	"telamalloc/internal/workload"
)

// TestBudgetFailureIsMonotone backs the spill planner's first-attempt
// proof: a solve that fails by running out of steps or by exhausting its
// space at budget B fails at every smaller budget too. The fixtures split
// into several §5.3 groups, so budgets near the boundary fund a group's
// retry from the steps its solved siblings left, and the property is
// checked sequentially and on two workers.
func TestBudgetFailureIsMonotone(t *testing.T) {
	var retried int
	for _, tc := range []struct {
		name       string
		components int
		perComp    int
		ratio      int
		seed       int64
	}{
		{"4x15@105", 4, 15, 105, 1},
		{"5x10@115", 5, 10, 115, 6},
		{"3x14@103", 3, 14, 103, 2},
		{"6x8@101", 6, 8, 101, 3},
	} {
		p := workload.MultiComponent(tc.components, tc.perComp, tc.ratio, tc.seed)
		for _, par := range []int{1, 2} {
			solvedAt := int64(-1) // the smallest budget that solved so far
			var last Result
			for b := int64(1); b <= 400; b++ {
				res := Solve(p, Config{MaxSteps: b, Parallelism: par})
				switch res.Status {
				case telamon.Solved:
					if solvedAt < 0 {
						solvedAt = b
					}
					for _, g := range res.Groups {
						if g.Retried {
							retried++
						}
					}
				case telamon.Budget, telamon.Exhausted:
					if solvedAt > 0 {
						t.Fatalf("%s, parallelism %d: solved at budget %d but %v at %d", tc.name, par, solvedAt, res.Status, b)
					}
				default:
					t.Fatalf("%s, parallelism %d, budget %d: status %v", tc.name, par, b, res.Status)
				}
				last = res
			}
			if solvedAt <= 1 {
				t.Errorf("%s, parallelism %d: solved from budget %d on, last %v: no failure to check", tc.name, par, solvedAt, last.Status)
			}
			t.Logf("%s, parallelism %d: fails below %d steps", tc.name, par, solvedAt)
		}
	}
	if retried == 0 {
		t.Error("no solve retried a group on leftover steps: the fixtures no longer exercise retries")
	}
}

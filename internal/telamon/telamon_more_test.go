package telamon

import (
	"math/rand"
	"slices"
	"testing"

	"telamalloc/internal/buffers"
	"telamalloc/internal/cp"
)

// hardInstance produces a tight instance that forces major backtracks.
func hardInstance(seed int64, n int) *buffers.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &buffers.Problem{}
	for i := 0; i < n; i++ {
		start := rng.Int63n(16)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start, End: start + 1 + rng.Int63n(10), Size: 1 + rng.Int63n(8),
		})
	}
	p.Normalize()
	p.Memory = buffers.Contention(p).Peak()
	return p
}

func TestSearchTerminatesWithoutBudget(t *testing.T) {
	// The tried-candidate filter must guarantee termination even with no
	// step cap: these tight instances previously caused infinite
	// ping-pong between symmetric candidates.
	for seed := int64(0); seed < 20; seed++ {
		p := hardInstance(seed, 10)
		res := Search(p, nil, idOrderPolicy{}, Options{}) // no budget at all
		if res.Status == Budget {
			t.Fatalf("seed %d: Budget status without a budget", seed)
		}
		if res.Status == Solved {
			if err := res.Solution.Validate(p); err != nil {
				t.Fatalf("seed %d: invalid solution: %v", seed, err)
			}
		}
	}
}

func TestSymmetricPairTerminates(t *testing.T) {
	// The minimal historical livelock: two identical buffers, memory for
	// both only in one order, plus a third that can never fit.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
		Memory: 11, // two fit (8 <= 11), three never (12 > 11)
	}
	p.Normalize()
	res := Search(p, nil, idOrderPolicy{}, Options{})
	if res.Status != Exhausted {
		t.Errorf("status = %v, want exhausted", res.Status)
	}
}

func TestStuckDetectionEscapes(t *testing.T) {
	// With a tiny stuck threshold the search must still terminate and not
	// spin inside one subtree; compare against disabled stuck detection on
	// the same instances — both must agree on solvability whenever both
	// finish within budget.
	for seed := int64(0); seed < 10; seed++ {
		p := hardInstance(seed, 14)
		tiny := Search(p, nil, idOrderPolicy{}, Options{MaxSteps: 50000, StuckThreshold: 2})
		off := Search(p, nil, idOrderPolicy{}, Options{MaxSteps: 50000, StuckThreshold: -1})
		if tiny.Status == Solved {
			if err := tiny.Solution.Validate(p); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if tiny.Status == Solved && off.Status == Exhausted {
			t.Errorf("seed %d: stuck-escape found a solution the plain search proved absent?!", seed)
		}
	}
}

func TestPromotionCapRespected(t *testing.T) {
	// Queue length after promotion must never exceed the configured cap.
	capN := 5
	probe := capProbe{max: capN, t: t}
	for seed := int64(0); seed < 6; seed++ {
		p := hardInstance(seed, 16)
		Search(p, nil, &probe, Options{MaxSteps: 20000, MaxCandidatesPerLevel: capN})
	}
}

type capProbe struct {
	idOrderPolicy
	max int
	t   *testing.T
}

func (cp *capProbe) Candidates(st *State, cursor int, dst []int) ([]int, int) {
	// The framework caps queues only when *promoting* candidates on a major
	// backtrack; initial queues are the policy's responsibility. With this
	// policy returning at most `max` candidates, any longer queue would
	// prove the promotion cap is broken.
	for _, dp := range st.Stack {
		if len(dp.Queue) > cp.max {
			cp.t.Errorf("queue length %d exceeds cap %d", len(dp.Queue), cp.max)
		}
	}
	out, _ := cp.idOrderPolicy.Candidates(st, cursor, dst)
	if len(out) > cp.max {
		out = out[:cp.max]
	}
	return out, -1
}

func TestDisablePromotionStillTerminates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := hardInstance(seed, 12)
		res := Search(p, nil, idOrderPolicy{}, Options{DisablePromotion: true, MaxSteps: 100000})
		if res.Status == Solved {
			if err := res.Solution.Validate(p); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestFixedBacktrackMode(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := hardInstance(seed, 12)
		res := Search(p, nil, idOrderPolicy{}, Options{
			DisableConflictDriven: true,
			FixedBacktrack:        2,
			MaxSteps:              100000,
		})
		if res.Status == Solved {
			if err := res.Solution.Validate(p); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestBudgetStatusIsBudget(t *testing.T) {
	// A provably huge search with a tiny cap must report Budget (not
	// Exhausted, which would wrongly claim a completeness proof).
	p := hardInstance(3, 20)
	res := Search(p, nil, idOrderPolicy{}, Options{MaxSteps: 10})
	if res.Status == Exhausted && res.Stats.Steps >= 10 {
		t.Errorf("status = exhausted at the budget boundary")
	}
}

func TestMaxDepthNeverExceedsBuffers(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := hardInstance(seed, 12)
		res := Search(p, nil, idOrderPolicy{}, Options{MaxSteps: 30000})
		if res.Stats.MaxDepth > len(p.Buffers)+1 {
			t.Errorf("seed %d: MaxDepth %d with %d buffers", seed, res.Stats.MaxDepth, len(p.Buffers))
		}
	}
}

// TestLastConflictSurvivesDeeperConflicts: a point's LastConflict is its
// own copy. The model owns the conflicts it returns and overwrites them on
// its next failure, so an exhausted point must still read the conflict it
// saw, not one from deeper in its subtree.
func TestLastConflictSurvivesDeeperConflicts(t *testing.T) {
	// Two size-6 buffers live together in 12 bytes. The root tries buffer
	// 0 at 3, where it leaves no room for buffer 1, then commits buffer 1
	// at 0; the point above it tries buffer 0 at 0, where buffer 1 sits.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{{Start: 0, End: 10, Size: 6}, {Start: 0, End: 10, Size: 6}},
		Memory:  12,
	}
	p.Normalize()
	var root, deeper cp.Conflict
	checked := false
	policy := funcPolicy{
		cands: func(st *State, _ int, dst []int) ([]int, int) {
			if len(st.Stack) == 0 {
				return append(dst, 0, 1), -1
			}
			return append(dst, 0), -1
		},
		place: func(st *State, b int) (int64, bool) {
			if len(st.Stack) == 1 && b == 0 {
				return 3, true
			}
			return 0, true
		},
		back: func(st *State, exhausted *DecisionPoint) (int, bool) {
			checked = true
			root, deeper = copyConflict(st.Stack[0].LastConflict), copyConflict(exhausted.LastConflict)
			return -1, true
		},
	}
	if res := Search(p, nil, policy, Options{MaxSteps: 10}); res.Status != Exhausted || res.Stats.Steps != 3 {
		t.Fatalf("%v after %d steps, want exhausted after 3", res.Status, res.Stats.Steps)
	}
	if !checked {
		t.Fatal("no major backtrack")
	}
	if root.Pair != (cp.Pair{A: 0, B: 1}) || root.Var != -1 || !slices.Equal(root.Placements, []int{0}) {
		t.Errorf("root's LastConflict reads %+v, want the dead pair (0,1) explained by placement 0", root)
	}
	if deeper.Pair != (cp.Pair{A: 0, B: 0}) || deeper.Var != 0 || !slices.Equal(deeper.Placements, []int{0}) {
		t.Errorf("exhausted point's LastConflict reads %+v, want buffer 0's wipeout explained by placement 0", deeper)
	}
}

func copyConflict(c *cp.Conflict) cp.Conflict {
	if c == nil {
		return cp.Conflict{Var: -2}
	}
	dup := *c
	dup.Placements = slices.Clone(c.Placements)
	return dup
}

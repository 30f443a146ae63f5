package core

import (
	"cmp"
	"slices"

	"telamalloc/internal/buffers"
	"telamalloc/internal/telamon"
)

// Strategy identifies one of the simple block-selection strategies the
// paper compares against in §7.2 / Figure 14. Each replaces TelaMalloc's
// block selection with a single rule; placement stays "lowest possible
// position" and backtracking reverts to plain last-valid-point hops.
type Strategy int

const (
	// StrategyMaxSize selects the largest unplaced block (corresponds to
	// Lee & Pisarchyk's greedy-by-size).
	StrategyMaxSize Strategy = iota
	// StrategyMaxArea selects the block with the largest size × lifetime.
	StrategyMaxArea
	// StrategyMaxLifetime selects the longest-lived block.
	StrategyMaxLifetime
	// StrategyLowestPosition selects the block that can currently be placed
	// at the lowest position (the best-fit strategy from Sekiyama et al.).
	StrategyLowestPosition
)

func (s Strategy) String() string {
	switch s {
	case StrategyMaxSize:
		return "max-size"
	case StrategyMaxArea:
		return "max-area"
	case StrategyMaxLifetime:
		return "max-lifetime"
	default:
		return "lowest-position"
	}
}

// Strategies lists all single-strategy baselines in display order.
var Strategies = []Strategy{StrategyMaxSize, StrategyMaxArea, StrategyMaxLifetime, StrategyLowestPosition}

// strategyPolicy is the single-heuristic ablation policy.
type strategyPolicy struct {
	// order is every buffer in the strategy's static order, which every
	// decision point walks; nil for lowest-position.
	order []int
	// pos is lowest-position's per-decision-point scratch, by buffer ID.
	pos []int64
}

func newStrategyPolicy(p *buffers.Problem, strat Strategy) *strategyPolicy {
	sp := &strategyPolicy{}
	var order func(a, b buffers.Buffer) int
	switch strat {
	case StrategyMaxSize:
		order = largerSize
	case StrategyMaxArea:
		order = largerArea
	case StrategyMaxLifetime:
		order = longerLife
	default:
		sp.pos = make([]int64, len(p.Buffers))
		return sp
	}
	sp.order = make([]int, len(p.Buffers))
	for i := range sp.order {
		sp.order[i] = i
	}
	sortStable(p, sp.order, order)
	return sp
}

// Candidates offers every unplaced buffer ordered by the strategy's
// criterion (ties to the lower ID), so minor backtracks naturally fall
// through to the next-best block. The static criteria walk one presorted
// order, one buffer per batch, the cursor being the position to resume
// at; lowest-position depends on the state and is sorted in one batch.
func (sp *strategyPolicy) Candidates(st *telamon.State, cursor int, dst []int) ([]int, int) {
	if sp.order != nil {
		for j := cursor; j < len(sp.order); j++ {
			if b := sp.order[j]; !st.Model.Placed(b) {
				return append(dst, b), j + 1
			}
		}
		return dst, -1
	}
	for id := range st.Prob.Buffers {
		if st.Model.Placed(id) {
			continue
		}
		p, ok := st.Model.LowestFeasible(id)
		if !ok {
			p = 1 << 62
		}
		sp.pos[id] = p
		dst = append(dst, id)
	}
	slices.SortFunc(dst, func(a, b int) int {
		if c := cmp.Compare(sp.pos[a], sp.pos[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return dst, -1
}

// Placement places at the lowest possible position, like the paper's
// ablation setup.
func (sp *strategyPolicy) Placement(st *telamon.State, buf int) (int64, bool) {
	return st.Model.LowestFeasible(buf)
}

// BacktrackTarget keeps the framework default; combined with
// DisableConflictDriven this yields plain "go to the last valid point".
func (sp *strategyPolicy) BacktrackTarget(st *telamon.State, dp *telamon.DecisionPoint) (int, bool) {
	return 0, false
}

var _ telamon.Policy = (*strategyPolicy)(nil)

// SolveWithStrategy runs the single-strategy searcher on p with the given
// step budget (0 = unlimited), reproducing the §7.2 ablation configuration:
// fixed backtracking, no candidate promotion, no phases.
func SolveWithStrategy(p *buffers.Problem, strat Strategy, maxSteps int64) telamon.Result {
	opts := telamon.Options{
		MaxSteps:              maxSteps,
		DisableConflictDriven: true,
		DisablePromotion:      true,
		StuckThreshold:        -1,
	}
	return telamon.Search(p, nil, newStrategyPolicy(p, strat), opts)
}

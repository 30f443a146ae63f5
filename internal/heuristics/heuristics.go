// Package heuristics implements the non-search baseline allocators the
// paper compares against (§3.1):
//
//   - BestFit: a timing-unaware best-fit allocator in the style of
//     TensorFlow's BFC allocator / dlmalloc. It processes buffers in start
//     order and picks the tightest gap among currently live buffers.
//   - GreedyContention: the production-quality greedy heuristic — blocks
//     ordered by contention (ties: alignment, size×lifetime², lifetime) and
//     packed bottom-up into the lowest available gaps, like pieces in a
//     game of Tetris (Figure 4).
//
// Both are fast but incomplete: they cannot backtrack, so they fail on
// tight instances that the solver-based approaches handle.
package heuristics

import (
	"errors"
	"fmt"
	"sort"

	"telamalloc/internal/buffers"
	"telamalloc/internal/intervals"
)

// ErrNoFit is returned when an allocator cannot place every buffer within
// the problem's memory limit.
var ErrNoFit = errors.New("heuristics: no placement found within the memory limit")

// Allocator is the interface shared by every allocation strategy in the
// repository. Allocate returns a complete, valid solution or an error.
type Allocator interface {
	// Name identifies the allocator in experiment output.
	Name() string
	// Allocate solves p or fails. Implementations must not mutate p.
	Allocate(p *buffers.Problem) (*buffers.Solution, error)
}

// BestFit is the BFC-style baseline: buffers are allocated in start-time
// order and freed at their end times; each allocation takes the tightest
// hole among currently live buffers. End times are otherwise ignored, which
// is why it needs far more memory than timing-aware approaches (Figure 3).
type BestFit struct{}

// Name implements Allocator.
func (BestFit) Name() string { return "best-fit" }

// Allocate implements Allocator.
func (BestFit) Allocate(p *buffers.Problem) (*buffers.Solution, error) {
	sol, peak := BestFitUnbounded(p)
	if peak > p.Memory {
		return nil, fmt.Errorf("%w: best-fit needs %d bytes, limit is %d", ErrNoFit, peak, p.Memory)
	}
	return sol, nil
}

// BestFitUnbounded runs the best-fit allocator with no memory limit and
// returns the packing together with its peak usage. Figure 3 plots this
// peak against the limit to show when best-fit fails.
func BestFitUnbounded(p *buffers.Problem) (*buffers.Solution, int64) {
	sol := buffers.NewSolution(len(p.Buffers))
	const unbounded = int64(1) << 62
	var peak int64
	var occ []intervals.Interval
	buffers.Sweep(p, func(_ int64, id int, start bool, live []int) {
		if !start {
			return
		}
		// The live set holds exactly the placed buffers whose range
		// contains b.Start.
		b := p.Buffers[id]
		occ = occ[:0]
		for _, j := range live {
			occ = append(occ, intervals.Interval{Lo: sol.Offsets[j], Hi: sol.Offsets[j] + p.Buffers[j].Size})
		}
		occ = intervals.SortAndMerge(occ)
		pos, ok := intervals.BestFit(occ, b.Size, b.Align, unbounded)
		if !ok {
			pos = 0 // cannot happen with an unbounded limit, but stay safe
		}
		sol.Offsets[id] = pos
		if pos+b.Size > peak {
			peak = pos + b.Size
		}
	})
	return sol, peak
}

// GreedyContention is the paper's production baseline heuristic (§3.1):
// buffers are considered in order of decreasing contention (the maximum
// total live bytes over the buffer's lifetime), with ties broken by
// alignment, then size×lifetime², then lifetime. Each buffer lands in the
// lowest gap among its already-placed temporal neighbours (Figure 4's
// bottom-up row traversal).
type GreedyContention struct{}

// Name implements Allocator.
func (GreedyContention) Name() string { return "greedy-contention" }

// Allocate implements Allocator.
func (GreedyContention) Allocate(p *buffers.Problem) (*buffers.Solution, error) {
	sol, peak := GreedyContentionUnbounded(p)
	if peak > p.Memory {
		return nil, fmt.Errorf("%w: greedy heuristic needs %d bytes, limit is %d", ErrNoFit, peak, p.Memory)
	}
	return sol, nil
}

// GreedyContentionUnbounded runs the greedy heuristic without a memory
// limit and returns the packing and its peak usage. MinMemory probes this
// to find the smallest limit at which the heuristic succeeds (Table 2).
//
// Placement follows Figure 4 of the paper: blocks are considered in score
// order and each lands in the lowest gap among its already-placed temporal
// neighbours (the paper's row-wise skyline traversal fills the same gaps,
// bottom row first). Selection order is contention first with the paper's
// tie-breaks: alignment, then size × lifetime², then lifetime.
func GreedyContentionUnbounded(p *buffers.Problem) (*buffers.Solution, int64) {
	n := len(p.Buffers)
	sol := buffers.NewSolution(n)
	contention := buffers.BufferContention(p)
	ov := buffers.ComputeOverlaps(p)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		bi, bj := p.Buffers[i], p.Buffers[j]
		if contention[i] != contention[j] {
			return contention[i] > contention[j]
		}
		if bi.Align != bj.Align {
			return bi.Align > bj.Align
		}
		li, lj := bi.Lifetime(), bj.Lifetime()
		// size × lifetime² in float64: immune to overflow at the magnitude
		// caps Validate enforces.
		si := float64(bi.Size) * float64(li) * float64(li)
		sj := float64(bj.Size) * float64(lj) * float64(lj)
		if si != sj {
			return si > sj
		}
		if li != lj {
			return li > lj
		}
		return i < j
	})
	const unbounded = int64(1) << 62
	var peak int64
	occ := make([]intervals.Interval, 0, 32)
	for _, id := range order {
		b := p.Buffers[id]
		occ = occ[:0]
		for _, nb := range ov.Neighbors[id] {
			if off := sol.Offsets[nb]; off >= 0 {
				occ = append(occ, intervals.Interval{Lo: off, Hi: off + p.Buffers[nb].Size})
			}
		}
		merged := intervals.SortAndMerge(occ)
		pos, _ := intervals.LowestFit(merged, b.Size, b.Align, 0, unbounded)
		sol.Offsets[id] = pos
		if pos+b.Size > peak {
			peak = pos + b.Size
		}
		occ = merged
	}
	return sol, peak
}

// UnboundedFunc is the shape shared by the two *Unbounded packers.
type UnboundedFunc func(*buffers.Problem) (*buffers.Solution, int64)

// MinMemory returns the smallest memory limit at which pack succeeds, i.e.
// its peak usage (both packers are limit-oblivious, so the peak is exactly
// the minimum limit they can cope with).
func MinMemory(pack UnboundedFunc, p *buffers.Problem) int64 {
	_, peak := pack(p)
	return peak
}

// UsageProfile returns the piecewise-constant profile of the highest
// address in use over time for a given packing — the quantity Figure 3
// plots for each allocator. Steps are emitted in time order.
func UsageProfile(p *buffers.Problem, sol *buffers.Solution) []buffers.ContentionStep {
	var steps []buffers.ContentionStep
	prevT, _ := p.TimeHorizon()
	buffers.Sweep(p, func(t int64, _ int, _ bool, live []int) {
		if t == prevT {
			return
		}
		var top int64
		for _, id := range live {
			if end := sol.Offsets[id] + p.Buffers[id].Size; end > top {
				top = end
			}
		}
		steps = append(steps, buffers.ContentionStep{Start: prevT, End: t, Contention: top})
		prevT = t
	})
	return steps
}

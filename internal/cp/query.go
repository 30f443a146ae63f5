package cp

import "telamalloc/internal/intervals"

// Queries used for solver-guided placement (Figure 8b in the paper): instead
// of stacking blocks on the skyline, TelaMalloc asks the solver for the
// lowest currently-valid location of a buffer, which can be *underneath*
// overhangs left by earlier placements.

// occupied returns the merged address intervals occupied by placed
// temporal neighbours of buf. The returned slice is reused between calls.
func (m *Model) occupied(buf int) []intervals.Interval {
	m.occScratch = m.occScratch[:0]
	for _, nb := range m.ov.Neighbors[buf] {
		if m.placed[nb] {
			pos := m.posMin[nb]
			m.occScratch = append(m.occScratch, intervals.Interval{Lo: pos, Hi: pos + m.prob.Buffers[nb].Size})
		}
	}
	m.occScratch = intervals.SortAndMerge(m.occScratch)
	return m.occScratch
}

// LowestFeasible returns the lowest aligned position for buf that respects
// its current propagated bounds and does not collide with any placed
// temporal neighbour. The boolean is false when no such position exists
// (the caller should treat this as a dead end).
//
// At a propagation fixpoint that position is posMin[buf] whenever the
// domain is not empty, and no neighbour is read. Every pair is idle there,
// so a placed neighbour ordered below buf ends at or under posMin[buf], one
// ordered above starts at or over posMax[buf]+size, and one whose order is
// still Unknown starts at or over posMin[buf]+size: none overlaps buf at
// posMin[buf]. Off a fixpoint (after a conflict, until the Pop that undoes
// it) bounds and orders need not agree, and the placed neighbours are
// scanned.
//
// Note that this is necessary but not sufficient for global feasibility:
// deeper consequences only surface when Place propagates. That residual gap
// is exactly why the search can still backtrack.
func (m *Model) LowestFeasible(buf int) (int64, bool) {
	if m.conflictLevel < 0 {
		return m.posMin[buf], m.posMin[buf] <= m.posMax[buf]
	}
	b := m.prob.Buffers[buf]
	return intervals.LowestFit(m.occupied(buf), b.Size, b.Align, m.posMin[buf], m.posMax[buf]+b.Size)
}

// NextFeasibleAbove returns the lowest valid position for buf that is
// strictly greater than prev, or false if none exists: the next placement
// after prev that LowestFeasible's rules allow. The search itself tries one
// position per buffer, its lowest feasible one.
func (m *Model) NextFeasibleAbove(buf int, prev int64) (int64, bool) {
	b := m.prob.Buffers[buf]
	minPos := max(prev+1, m.posMin[buf])
	if b.Align > 1 {
		minPos = b.AlignUp(minPos)
	}
	return intervals.LowestFit(m.occupied(buf), b.Size, b.Align, minPos, m.posMax[buf]+b.Size)
}

// Solution extracts the fixed positions of placed buffers into offsets
// (indexed by buffer ID); unplaced buffers receive -1.
func (m *Model) Solution() []int64 {
	out := make([]int64, len(m.posMin))
	for i := range out {
		if m.placed[i] {
			out[i] = m.posMin[i]
		} else {
			out[i] = -1
		}
	}
	return out
}

// AllPlaced reports whether every buffer has been fixed.
func (m *Model) AllPlaced() bool { return len(m.serials) == len(m.placed) }

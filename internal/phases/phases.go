// Package phases implements TelaMalloc's contention-based grouping (§5.3 of
// the paper): a pre-processing pass that (1) splits the problem at time
// points no buffer crosses, yielding independent subproblems, and (2) within
// each subproblem, groups buffers into phases of decreasing contention using
// the threshold-sweep algorithm of Figure 9. The search then prefers to
// finish placing one phase before starting the next.
package phases

import (
	"sort"

	"telamalloc/internal/buffers"
)

// Region is a half-open time range [Start, End).
type Region struct {
	Start, End int64
}

// Overlaps reports whether b's live range intersects the region.
func (r Region) Overlaps(b buffers.Buffer) bool {
	return b.Start < r.End && r.Start < b.End
}

// Phase is one contention phase: a time region and the buffers assigned to
// it. Phases are ordered by decreasing contention threshold (ties broken by
// time), matching the order in which TelaMalloc wants to place them.
type Phase struct {
	Region Region
	// ThresholdPct is the contention threshold (percent of total memory) at
	// which this phase was discovered; 0 for the catch-all phase holding
	// buffers below every threshold.
	ThresholdPct int
	// Buffers holds the IDs assigned to this phase.
	Buffers []int
}

// Assignment is the result of grouping: an ordered phase list plus the
// phase index of every buffer.
type Assignment struct {
	Phases []Phase
	// PhaseOf[id] is the index into Phases for buffer id.
	PhaseOf []int
}

// thresholds is the percent ladder from Figure 9 of the paper.
var thresholds = []int{100, 90, 80, 70, 60, 50, 40, 30, 20}

// Group runs the Figure 9 algorithm over the problem. Buffers that overlap
// no high-contention range end up in a trailing catch-all phase.
//
// At each threshold a buffer joins the first range, in time order, that it
// overlaps: the ranges are disjoint and time-ordered, so that is the first
// range ending after the buffer starts, if it also starts before the buffer
// ends. That takes one binary search per buffer still unassigned. Phases
// follow their ranges' time order and list their buffers by ID.
func Group(p *buffers.Problem) *Assignment {
	n := len(p.Buffers)
	a := &Assignment{PhaseOf: make([]int, n)}
	for i := range a.PhaseOf {
		a.PhaseOf[i] = -1
	}
	if n == 0 {
		return a
	}
	profile := buffers.Contention(p)
	assigned := 0
	for _, pct := range thresholds {
		if assigned == n {
			break
		}
		ranges := highContentionRanges(profile, int64(pct)*p.Memory/100)
		joined := make([][]int, len(ranges))
		for id, b := range p.Buffers {
			if a.PhaseOf[id] >= 0 {
				continue
			}
			r := sort.Search(len(ranges), func(r int) bool { return ranges[r].End > b.Start })
			if r < len(ranges) && ranges[r].Overlaps(b) {
				joined[r] = append(joined[r], id)
			}
		}
		for r, ids := range joined {
			if len(ids) == 0 {
				continue
			}
			for _, id := range ids {
				a.PhaseOf[id] = len(a.Phases)
			}
			a.Phases = append(a.Phases, Phase{Region: ranges[r], ThresholdPct: pct, Buffers: ids})
			assigned += len(ids)
		}
	}
	if assigned < n {
		lo, hi := p.TimeHorizon()
		a.Phases = append(a.Phases, Phase{Region: Region{lo, hi}})
		idx := len(a.Phases) - 1
		ph := &a.Phases[idx]
		for id := range p.Buffers {
			if a.PhaseOf[id] < 0 {
				ph.Buffers = append(ph.Buffers, id)
				a.PhaseOf[id] = idx
			}
		}
	}
	return a
}

// highContentionRanges returns the maximal contiguous time ranges whose
// contention matches or exceeds threshold, in time order.
func highContentionRanges(profile buffers.ContentionProfile, threshold int64) []Region {
	var out []Region
	inRange := false
	var start int64
	for _, step := range profile.Steps {
		if step.Contention >= threshold {
			if !inRange {
				inRange = true
				start = step.Start
			}
		} else if inRange {
			inRange = false
			out = append(out, Region{start, step.Start})
		}
	}
	if inRange && len(profile.Steps) > 0 {
		out = append(out, Region{start, profile.Steps[len(profile.Steps)-1].End})
	}
	return out
}

// SplitIndependent finds cut points no buffer crosses and partitions the
// problem into independent subproblems that can be solved in isolation
// (§5.3: "we can divide the problem into two subproblems that can be solved
// independently"). The returned slices hold buffer IDs per subproblem, in
// time order. Problems with a single component return one group.
func SplitIndependent(p *buffers.Problem) [][]int {
	// A cut exists wherever a buffer starts with nothing live, so a group
	// is a run of consecutive starts, and one array holds every group.
	ids := make([]int, 0, len(p.Buffers))
	var cuts []int
	buffers.Sweep(p, func(_ int64, id int, start bool, live []int) {
		if !start {
			return
		}
		if len(live) == 0 {
			cuts = append(cuts, len(ids))
		}
		ids = append(ids, id)
	})
	if len(ids) == 0 {
		return nil
	}
	cuts = append(cuts, len(ids))
	groups := make([][]int, len(cuts)-1)
	for i := range groups {
		lo, hi := cuts[i], cuts[i+1]
		groups[i] = ids[lo:hi:hi]
	}
	return groups
}

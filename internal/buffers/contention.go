package buffers

import "sort"

// ContentionStep is one segment of a piecewise-constant contention profile:
// the total number of live bytes is Contention for every time slot t with
// Start <= t < End.
type ContentionStep struct {
	Start, End int64
	Contention int64
}

// ContentionProfile is the piecewise-constant function mapping logical time
// to the sum of sizes of all live buffers, as defined in §3.1 of the paper.
// Steps are sorted by Start and contiguous over the problem's time horizon.
type ContentionProfile struct {
	Steps []ContentionStep
}

// Contention computes the contention profile of the problem with one
// Sweep. O(n log n).
func Contention(p *Problem) ContentionProfile {
	var profile ContentionProfile
	var cur int64
	prevT, _ := p.TimeHorizon()
	Sweep(p, func(t int64, id int, start bool, _ []int) {
		if t != prevT {
			profile.Steps = append(profile.Steps, ContentionStep{prevT, t, cur})
			prevT = t
		}
		if start {
			cur += p.Buffers[id].Size
		} else {
			cur -= p.Buffers[id].Size
		}
	})
	return profile
}

// Peak returns the maximum contention of the profile, which is a lower bound
// on the memory needed by any packing.
func (cp ContentionProfile) Peak() int64 {
	var peak int64
	for _, s := range cp.Steps {
		if s.Contention > peak {
			peak = s.Contention
		}
	}
	return peak
}

// At returns the contention at time t (zero outside the profile's range).
// O(log n) by binary search.
func (cp ContentionProfile) At(t int64) int64 {
	i := sort.Search(len(cp.Steps), func(i int) bool { return cp.Steps[i].End > t })
	if i == len(cp.Steps) || cp.Steps[i].Start > t {
		return 0
	}
	return cp.Steps[i].Contention
}

// MaxOver returns the maximum contention over [start, end). O(log n + k).
func (cp ContentionProfile) MaxOver(start, end int64) int64 {
	i := sort.Search(len(cp.Steps), func(i int) bool { return cp.Steps[i].End > start })
	var peak int64
	for ; i < len(cp.Steps) && cp.Steps[i].Start < end; i++ {
		if cp.Steps[i].Contention > peak {
			peak = cp.Steps[i].Contention
		}
	}
	return peak
}

// BufferContention returns, for every buffer, the maximum contention of any
// time slot during which the buffer is live — the quantity the baseline
// heuristic (§3.1) orders buffers by.
func BufferContention(p *Problem) []int64 {
	profile := Contention(p)
	out := make([]int64, len(p.Buffers))
	for i, b := range p.Buffers {
		out[i] = profile.MaxOver(b.Start, b.End)
	}
	return out
}

package buffers

import (
	"slices"
	"sort"
)

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

// Remove subtracts b from the profile, which then reads as the profile of
// the problem without b, its steps still split at b's Start and End.
// O(log n + k) for the k steps b spans.
func (cp ContentionProfile) Remove(b Buffer) {
	i := sort.Search(len(cp.Steps), func(i int) bool { return cp.Steps[i].End > b.Start })
	for ; i < len(cp.Steps) && cp.Steps[i].Start < b.End; i++ {
		cp.Steps[i].Contention -= b.Size
	}
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

// AlignSlotBound returns the alignment-slot lower bound on the memory any
// packing of p needs, or 0 when no buffer has an alignment above one.
//
// Take an alignment value A > 1 of the problem. Every buffer whose Align is
// a multiple of A starts on an A-boundary, so it covers ⌈s/A⌉ whole A-slots
// that no other such buffer live at the same time can share. The topmost of
// them may end inside its last slot, so at every time t
//
//	M ≥ A·Σ⌈s/A⌉ − max(A·⌈s/A⌉ − s)
//
// over the live buffers whose Align is a multiple of A. The bound is the
// maximum over t and A. It can exceed the contention peak, whose sum counts
// the bytes an alignment gap wastes as free.
//
// One Sweep computes it: per A, a running slot sum and a max-heap of the
// live buffers' waste (A·⌈s/A⌉ − s), whose ended entries are dropped when
// they reach the top. O(n log n + n·|A|·log n).
func AlignSlotBound(p *Problem) int64 {
	var aligns []int64
	for _, b := range p.Buffers {
		if b.Align > 1 && !slices.Contains(aligns, b.Align) {
			aligns = append(aligns, b.Align)
		}
	}
	if len(aligns) == 0 {
		return 0
	}
	sums := make([]int64, len(aligns))
	wastes := make([]wasteHeap, len(aligns))
	ended := make([]bool, len(p.Buffers))
	var bound int64
	Sweep(p, func(_ int64, id int, start bool, _ []int) {
		b := p.Buffers[id]
		if b.Align <= 1 {
			return
		}
		if !start {
			ended[id] = true
		}
		for k, a := range aligns {
			if b.Align%a != 0 {
				continue
			}
			slots := a * ((b.Size + a - 1) / a)
			if !start {
				sums[k] -= slots
				continue
			}
			sums[k] += slots
			h := &wastes[k]
			h.push(slotWaste{slots - b.Size, id})
			for ended[h.top().id] {
				h.pop()
			}
			bound = max(bound, sums[k]-h.top().waste)
		}
	})
	return bound
}

// slotWaste is one buffer's bytes left unused in its last A-slot.
type slotWaste struct {
	waste int64
	id    int
}

// wasteHeap is a binary max-heap of slotWastes by waste.
type wasteHeap []slotWaste

func (h wasteHeap) top() slotWaste { return h[0] }

func (h *wasteHeap) push(w slotWaste) {
	*h = append(*h, w)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].waste >= s[i].waste {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *wasteHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		big, l, r := i, 2*i+1, 2*i+2
		if l < len(s) && s[l].waste > s[big].waste {
			big = l
		}
		if r < len(s) && s[r].waste > s[big].waste {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	*h = s
}

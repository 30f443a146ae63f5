package buffers

import "sort"

// Overlaps is the static temporal-overlap adjacency of a problem: for each
// buffer, the IDs of all other buffers whose live ranges intersect its own.
// The paper calls these pairs OverlappingBuffers; they determine which pairs
// need spatial-disjointness constraints. The structure is computed once per
// problem and shared by the CP engine, the ILP solver and all heuristics.
type Overlaps struct {
	// Neighbors[i] lists, in increasing ID order, the buffers that overlap
	// buffer i in time.
	Neighbors [][]int
	// PairCount is the number of unordered overlapping pairs.
	PairCount int
}

// ComputeOverlaps builds the overlap adjacency with two Sweeps: the first
// counts each buffer's neighbours, so the lists are cut to size from one
// array, and the second fills them, pairing each started buffer with the
// live set. The output size is
// Θ(number of overlapping pairs), which is quadratic for fully overlapping
// inputs — the same scaling limit the paper reports in Table 1.
func ComputeOverlaps(p *Problem) *Overlaps {
	ov := &Overlaps{Neighbors: make([][]int, len(p.Buffers))}
	deg := make([]int, len(p.Buffers))
	Sweep(p, func(_ int64, id int, start bool, live []int) {
		if !start {
			return
		}
		for _, j := range live {
			deg[j]++
		}
		deg[id] += len(live)
		ov.PairCount += len(live)
	})
	backing := make([]int, 2*ov.PairCount)
	for i, d := range deg {
		if d > 0 {
			ov.Neighbors[i], backing = backing[:0:d], backing[d:]
		}
	}
	Sweep(p, func(_ int64, id int, start bool, live []int) {
		if !start {
			return
		}
		for _, j := range live {
			ov.Neighbors[j] = append(ov.Neighbors[j], id)
			ov.Neighbors[id] = append(ov.Neighbors[id], j)
		}
	})
	for _, ns := range ov.Neighbors {
		sort.Ints(ns)
	}
	return ov
}

// Overlapping reports whether buffers a and b overlap in time, using the
// precomputed adjacency. O(log deg).
func (ov *Overlaps) Overlapping(a, b int) bool {
	ns := ov.Neighbors[a]
	i := sort.SearchInts(ns, b)
	return i < len(ns) && ns[i] == b
}

// Degree returns the number of temporal neighbours of buffer i.
func (ov *Overlaps) Degree(i int) int { return len(ov.Neighbors[i]) }

package buffers

import (
	"cmp"
	"slices"
)

// Sweep walks the problem's live ranges along the time axis and calls visit
// once per event: a start event at b.Start and an end event at b.End for
// every buffer. Events come in one fixed order: time ascending; at equal
// times every end before every start, because End is exclusive (a buffer
// ending at t does not overlap one starting at t); then buffer index
// ascending.
//
// live holds the buffers live just before the event, in no particular
// order. For a start event these are exactly the buffers that overlap it
// and come earlier in the order; for an end event they include the ending
// buffer itself. visit must not keep or modify live.
//
// The live sets are exact when every buffer has Start < End, as
// Problem.Validate guarantees; an empty or inverted range still gets both
// its events, but may then stay live to the end of the walk. The walk costs
// O(n log n) plus visit's own work: the live set adds and removes in O(1).
func Sweep(p *Problem, visit func(t int64, id int, start bool, live []int)) {
	n := len(p.Buffers)
	type key struct {
		t  int64
		id int
	}
	keys := make([]key, 2*n)
	starts, ends := keys[:n], keys[n:]
	for i, b := range p.Buffers {
		starts[i] = key{b.Start, i}
		ends[i] = key{b.End, i}
	}
	byTime := func(a, b key) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	}
	slices.SortFunc(starts, byTime)
	slices.SortFunc(ends, byTime)

	// pos[id] is id's index in live, or -1 when id is not live.
	scratch := make([]int, 2*n)
	pos, live := scratch[:n], scratch[n:n]
	for i := range pos {
		pos[i] = -1
	}
	for s, e := 0, 0; s < n || e < n; {
		if s < n && (e == n || starts[s].t < ends[e].t) {
			id := starts[s].id
			visit(starts[s].t, id, true, live)
			pos[id] = len(live)
			live = append(live, id)
			s++
			continue
		}
		id := ends[e].id
		visit(ends[e].t, id, false, live)
		if k := pos[id]; k >= 0 {
			last := live[len(live)-1]
			live[k], pos[last] = last, k
			live = live[:len(live)-1]
			pos[id] = -1
		}
		e++
	}
}

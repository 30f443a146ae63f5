package cp

// Conflict explanation: when a domain wipes out, we walk the reason chains
// of the implicated variables and collect the *placed* buffers that
// (transitively) tightened the failing bounds. This mirrors the behaviour
// the paper relies on in §5.4: "When the CP solver reports a failure, it
// also reports conflicting variable assignments. This tells us which block
// placements caused the problem."

// explainBudget bounds the breadth-first walk over reason chains so that
// explanation cost stays negligible next to propagation.
const explainBudget = 256

// explainVar builds a conflict for a wipeout of variable v detected while
// propagating pair pr, in the model's conflict storage.
func (m *Model) explainVar(pr Pair, v int32) *Conflict {
	return m.explain(pr, v, v, pr.A, pr.B)
}

// explainPair builds a conflict for a dead disjunction (neither ordering of
// pr is feasible), in the model's conflict storage.
func (m *Model) explainPair(pr Pair) *Conflict {
	return m.explain(pr, -1, pr.A, pr.B)
}

// explain overwrites the model's one conflict with pr, v and the placements
// the seeds' reason chains reach, and returns it.
func (m *Model) explain(pr Pair, v int32, seeds ...int32) *Conflict {
	c := &m.conflict
	c.Pair, c.Var = pr, v
	c.Placements = m.collect(c.Placements[:0], seeds...)
	return c
}

// reasonWalk is collect's reusable state: seen[v] == epoch marks v visited
// in the current walk, and frontier is its breadth-first queue.
type reasonWalk struct {
	seen     []uint32
	frontier []int32
	epoch    uint32
}

// collect appends to placements the IDs of placed buffers reachable through
// the reason chains of the seed variables, breadth-first and deduplicated.
// The visited set is an epoch stamp per variable and the frontier a slice
// kept on the model, and the chains are links in the trail, so a walk
// allocates nothing once its slices have grown.
func (m *Model) collect(placements []int, seeds ...int32) []int {
	w := m.walk
	if w == nil {
		w = &reasonWalk{seen: make([]uint32, len(m.placed))}
		m.walk = w
	}
	w.epoch++
	if w.epoch == 0 {
		clear(w.seen)
		w.epoch = 1
	}
	w.frontier = w.frontier[:0]
	for _, s := range seeds {
		w.visit(s)
	}
	budget := explainBudget
	for i := 0; i < len(w.frontier) && budget > 0; i++ {
		v := w.frontier[i]
		if m.placed[v] {
			placements = append(placements, int(v))
			// A placed buffer's position is a decision; its own reasons are
			// irrelevant to the explanation.
			continue
		}
		for i := m.minReason[v]; i >= 0 && budget > 0; i = m.trail[i].oldReason {
			w.visit(m.trail[i].by)
			budget--
		}
		for i := m.maxReason[v]; i >= 0 && budget > 0; i = m.trail[i].oldReason {
			w.visit(m.trail[i].by)
			budget--
		}
	}
	return placements
}

// visit appends v to the frontier unless it is a decision marker (-1) or
// already visited in this walk.
func (w *reasonWalk) visit(v int32) {
	if v >= 0 && w.seen[v] != w.epoch {
		w.seen[v] = w.epoch
		w.frontier = append(w.frontier, v)
	}
}

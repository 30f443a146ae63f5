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
// propagating pair pr.
func (m *Model) explainVar(pr Pair, v int32) *Conflict {
	c := &Conflict{Pair: pr, Var: v}
	c.Placements = m.collect(v, pr.A, pr.B)
	return c
}

// explainPair builds a conflict for a dead disjunction (neither ordering of
// pr is feasible).
func (m *Model) explainPair(pr Pair) *Conflict {
	c := &Conflict{Pair: pr, Var: -1}
	c.Placements = m.collect(pr.A, pr.B)
	return c
}

// reasonWalk is collect's reusable state: seen[v] == epoch marks v visited
// in the current walk, and frontier is its breadth-first queue.
type reasonWalk struct {
	seen     []uint32
	frontier []int32
	epoch    uint32
}

// collect gathers the IDs of placed buffers reachable through the reason
// chains of the seed variables, breadth-first and deduplicated. The visited
// set is an epoch stamp per variable and the frontier a slice kept on the
// model, so a walk allocates only its result.
func (m *Model) collect(seeds ...int32) []int {
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
	var placements []int
	budget := explainBudget
	for i := 0; i < len(w.frontier) && budget > 0; i++ {
		v := w.frontier[i]
		if m.placed[v] {
			placements = append(placements, int(v))
			// A placed buffer's position is a decision; its own reasons are
			// irrelevant to the explanation.
			continue
		}
		for node := m.minReason[v]; node != nil && budget > 0; node = node.prev {
			w.visit(node.by)
			budget--
		}
		for node := m.maxReason[v]; node != nil && budget > 0; node = node.prev {
			w.visit(node.by)
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

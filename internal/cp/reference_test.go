package cp

import (
	"telamalloc/internal/buffers"
	"telamalloc/internal/intervals"
)

// refModel is the reference propagation engine the gated Model must match
// exactly. It is the plain wake-everything engine with three semantic
// rules, and none of Model's bookkeeping:
//
//  1. wake(v) scans every pair of v in pairsOf order and enqueues pair k
//     only if it is not queued and not idle (propagatePair(k) would change
//     something under the current bounds);
//  2. a pair stays marked queued while it is being propagated: Propagate
//     clears the mark after propagatePair returns, and FixOrder sets it
//     around its direct call;
//  3. newRefModel reaches the root fixpoint by enqueueing every non-idle
//     pair and propagating at level 0; a root conflict is kept, and Place
//     and FixOrder return it.
//
// Model's direction bitmasks, Unknown-neighbour counters and root
// thresholds only skip pairs this scan would find idle, so both engines
// must build the same queue in the same order: same bounds, orders,
// conflicts and Stats, PairWakeups included.
//
// Its reason chains are the pointer-linked nodes Model's trail-index links
// replaced, one node per bound change, so the reference also checks that
// the trail links explain every conflict with the same placements.
type refModel struct {
	prob *buffers.Problem
	ov   *buffers.Overlaps

	posMin, posMax []int64
	minReason      []*refReasonNode
	maxReason      []*refReasonNode
	placed         []bool

	pairs   []Pair
	order   []Order
	pairsOf [][]int32

	trail  []refTrailEntry
	levels []int

	queue     []int32
	queueHead int
	inQueue   []bool

	rootConflict *Conflict
	stats        Stats
}

// refReasonNode forms an immutable chain of "which variable caused this
// bound" breadcrumbs. Chains are persistent so that popping the trail can
// restore a previous chain by pointer.
type refReasonNode struct {
	by   int32 // variable whose bounds/placement triggered the tightening; -1 for decisions
	prev *refReasonNode
}

type refTrailEntry struct {
	kind      trailKind
	idx       int32
	old       int64
	oldReason *refReasonNode
}

func newRefModel(p *buffers.Problem, ov *buffers.Overlaps) *refModel {
	if ov == nil {
		ov = buffers.ComputeOverlaps(p)
	}
	n := len(p.Buffers)
	m := &refModel{
		prob:      p,
		ov:        ov,
		posMin:    make([]int64, n),
		posMax:    make([]int64, n),
		minReason: make([]*refReasonNode, n),
		maxReason: make([]*refReasonNode, n),
		placed:    make([]bool, n),
		pairsOf:   make([][]int32, n),
	}
	for i, b := range p.Buffers {
		m.posMin[i] = b.AlignUp(0)
		m.posMax[i] = alignDown(p.Memory-b.Size, b.Align)
	}
	for a := 0; a < n; a++ {
		for _, bID := range ov.Neighbors[a] {
			if bID <= a {
				continue
			}
			idx := int32(len(m.pairs))
			m.pairs = append(m.pairs, Pair{int32(a), int32(bID)})
			m.pairsOf[a] = append(m.pairsOf[a], idx)
			m.pairsOf[bID] = append(m.pairsOf[bID], idx)
		}
	}
	m.order = make([]Order, len(m.pairs))
	m.inQueue = make([]bool, len(m.pairs))
	for k := range m.pairs {
		if !m.idle(int32(k)) {
			m.inQueue[k] = true
			m.queue = append(m.queue, int32(k))
		}
	}
	m.rootConflict = m.Propagate()
	return m
}

func (m *refModel) Stats() Stats               { return m.stats }
func (m *refModel) NumPairs() int              { return len(m.pairs) }
func (m *refModel) PairAt(k int) (Pair, Order) { return m.pairs[k], m.order[k] }
func (m *refModel) MinPos(buf int) int64       { return m.posMin[buf] }
func (m *refModel) MaxPos(buf int) int64       { return m.posMax[buf] }
func (m *refModel) Placed(buf int) bool        { return m.placed[buf] }
func (m *refModel) Push()                      { m.levels = append(m.levels, len(m.trail)) }
func (m *refModel) Problem() *buffers.Problem  { return m.prob }
func (m *refModel) LowestFeasible(buf int) (int64, bool) {
	var occ []intervals.Interval
	for _, nb := range m.ov.Neighbors[buf] {
		if m.placed[nb] {
			occ = append(occ, intervals.Interval{Lo: m.posMin[nb], Hi: m.posMin[nb] + m.prob.Buffers[nb].Size})
		}
	}
	occ = intervals.SortAndMerge(occ)
	b := m.prob.Buffers[buf]
	return intervals.LowestFit(occ, b.Size, b.Align, m.posMin[buf], m.posMax[buf]+b.Size)
}

func (m *refModel) Pop() {
	if len(m.levels) == 0 {
		panic("cp: Pop without Push")
	}
	mark := m.levels[len(m.levels)-1]
	m.levels = m.levels[:len(m.levels)-1]
	for len(m.trail) > mark {
		e := m.trail[len(m.trail)-1]
		m.trail = m.trail[:len(m.trail)-1]
		switch e.kind {
		case tMin:
			m.posMin[e.idx] = e.old
			m.minReason[e.idx] = e.oldReason
		case tMax:
			m.posMax[e.idx] = e.old
			m.maxReason[e.idx] = e.oldReason
		case tOrder:
			m.order[e.idx] = Order(e.old)
		case tPlaced:
			if e.old == 0 {
				m.placed[e.idx] = false
			}
		}
	}
	m.clearQueue()
}

func (m *refModel) clearQueue() {
	for _, k := range m.queue[m.queueHead:] {
		m.inQueue[k] = false
	}
	m.queue = m.queue[:0]
	m.queueHead = 0
}

func (m *refModel) setMin(v int32, val int64, by int32) bool {
	val = m.prob.Buffers[v].AlignUp(val)
	if val <= m.posMin[v] {
		return true
	}
	m.trail = append(m.trail, refTrailEntry{tMin, v, m.posMin[v], m.minReason[v]})
	m.posMin[v] = val
	m.minReason[v] = &refReasonNode{by: by, prev: m.minReason[v]}
	m.stats.Propagations++
	if m.posMin[v] > m.posMax[v] {
		return false
	}
	m.wake(v)
	return true
}

func (m *refModel) setMax(v int32, val int64, by int32) bool {
	val = alignDown(val, m.prob.Buffers[v].Align)
	if val >= m.posMax[v] {
		return true
	}
	m.trail = append(m.trail, refTrailEntry{tMax, v, m.posMax[v], m.maxReason[v]})
	m.posMax[v] = val
	m.maxReason[v] = &refReasonNode{by: by, prev: m.maxReason[v]}
	m.stats.Propagations++
	if m.posMin[v] > m.posMax[v] {
		return false
	}
	m.wake(v)
	return true
}

func (m *refModel) setOrder(k int32, o Order) {
	m.trail = append(m.trail, refTrailEntry{tOrder, k, int64(m.order[k]), nil})
	m.order[k] = o
	m.stats.OrderFixes++
}

// idle reports whether propagatePair(k) would change nothing.
func (m *refModel) idle(k int32) bool {
	pr := m.pairs[k]
	a, b := pr.A, pr.B
	sa := m.prob.Buffers[a].Size
	sb := m.prob.Buffers[b].Size
	switch m.order[k] {
	case AFirst:
		return m.posMin[a]+sa <= m.posMin[b] && m.posMax[b]-sa >= m.posMax[a]
	case BFirst:
		return m.posMin[b]+sb <= m.posMin[a] && m.posMax[a]-sb >= m.posMax[b]
	default:
		return m.posMin[a]+sa <= m.posMax[b] && m.posMin[b]+sb <= m.posMax[a]
	}
}

func (m *refModel) wake(v int32) {
	for _, k := range m.pairsOf[v] {
		if !m.inQueue[k] && !m.idle(k) {
			m.inQueue[k] = true
			m.queue = append(m.queue, k)
		}
	}
}

func (m *refModel) Place(buf int, pos int64) *Conflict {
	if m.rootConflict != nil {
		return m.rootConflict
	}
	v := int32(buf)
	var was int64
	if m.placed[buf] {
		was = 1
	} else {
		m.placed[buf] = true
	}
	m.trail = append(m.trail, refTrailEntry{tPlaced, v, was, nil})
	if !m.setMin(v, pos, -1) || !m.setMax(v, pos, -1) {
		m.stats.Conflicts++
		c := m.explainVar(Pair{v, v}, v)
		m.clearQueue()
		return c
	}
	if m.posMin[buf] != pos || m.posMax[buf] != pos {
		m.stats.Conflicts++
		c := m.explainVar(Pair{v, v}, v)
		m.clearQueue()
		return c
	}
	return m.Propagate()
}

func (m *refModel) Propagate() *Conflict {
	for m.queueHead < len(m.queue) {
		k := m.queue[m.queueHead]
		m.queueHead++
		c := m.propagatePair(k)
		m.inQueue[k] = false
		if c != nil {
			m.stats.Conflicts++
			m.clearQueue()
			return c
		}
	}
	m.queue = m.queue[:0]
	m.queueHead = 0
	return nil
}

func (m *refModel) propagatePair(k int32) *Conflict {
	m.stats.PairWakeups++
	pr := m.pairs[k]
	a, b := pr.A, pr.B
	sa := m.prob.Buffers[a].Size
	sb := m.prob.Buffers[b].Size
	switch m.order[k] {
	case AFirst:
		if !m.setMin(b, m.posMin[a]+sa, a) {
			return m.explainVar(pr, b)
		}
		if !m.setMax(a, m.posMax[b]-sa, b) {
			return m.explainVar(pr, a)
		}
	case BFirst:
		if !m.setMin(a, m.posMin[b]+sb, b) {
			return m.explainVar(pr, a)
		}
		if !m.setMax(b, m.posMax[a]-sb, a) {
			return m.explainVar(pr, b)
		}
	case Unknown:
		abOK := m.posMin[a]+sa <= m.posMax[b]
		baOK := m.posMin[b]+sb <= m.posMax[a]
		switch {
		case !abOK && !baOK:
			return m.explainPair(pr)
		case !abOK:
			m.setOrder(k, BFirst)
			return m.propagatePair(k)
		case !baOK:
			m.setOrder(k, AFirst)
			return m.propagatePair(k)
		}
	}
	return nil
}

func (m *refModel) FixOrder(k int, o Order) *Conflict {
	if m.rootConflict != nil {
		return m.rootConflict
	}
	if m.order[k] != Unknown {
		if m.order[k] == o {
			return nil
		}
		m.stats.Conflicts++
		return m.explainPair(m.pairs[k])
	}
	m.setOrder(int32(k), o)
	m.inQueue[k] = true
	c := m.propagatePair(int32(k))
	m.inQueue[k] = false
	if c != nil {
		m.stats.Conflicts++
		m.clearQueue()
		return c
	}
	return m.Propagate()
}

func (m *refModel) explainVar(pr Pair, v int32) *Conflict {
	return &Conflict{Pair: pr, Var: v, Placements: m.collect(v, pr.A, pr.B)}
}

func (m *refModel) explainPair(pr Pair) *Conflict {
	return &Conflict{Pair: pr, Var: -1, Placements: m.collect(pr.A, pr.B)}
}

// collect is the map-based breadth-first reason walk Model.collect must
// reproduce, placement for placement.
func (m *refModel) collect(seeds ...int32) []int {
	visited := make(map[int32]bool, 16)
	var frontier []int32
	push := func(v int32) {
		if v >= 0 && !visited[v] {
			visited[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, s := range seeds {
		push(s)
	}
	var placements []int
	budget := explainBudget
	for i := 0; i < len(frontier) && budget > 0; i++ {
		v := frontier[i]
		if m.placed[v] {
			placements = append(placements, int(v))
			continue
		}
		for node := m.minReason[v]; node != nil && budget > 0; node = node.prev {
			push(node.by)
			budget--
		}
		for node := m.maxReason[v]; node != nil && budget > 0; node = node.prev {
			push(node.by)
			budget--
		}
	}
	return placements
}

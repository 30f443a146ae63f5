// Package cp implements the constraint-programming engine that TelaMalloc
// drives through the Telamon search framework. It is the repository's
// substitute for the CP-SAT solver the paper builds on: it provides exactly
// the four capabilities TelaMalloc needs from a solver —
//
//  1. incremental variable assignment with propagation to fixpoint,
//  2. detection of immediate unsatisfiability (domain wipeout),
//  3. conflict explanations naming the placements that caused a failure,
//  4. queries for the currently valid range / lowest valid position of
//     every position variable (solver-guided placement, Figure 8b).
//
// The model follows §5.1 of the paper: one integer variable pos(X) per
// buffer with domain [0, M-size(X)], and for every temporally overlapping
// pair an ordering disjunction (pos(X)+size(X) <= pos(Y)) XOR
// (pos(Y)+size(Y) <= pos(X)). Alignment (§5.5) is folded into the bound
// updates: bounds snap to each buffer's alignment grid.
//
// State is managed with a trail so that decisions can be pushed and popped
// in O(changes), which is what makes heuristic-driven backtracking search
// cheap. Propagation wakes only the pairs a bound change can tighten (see
// wakeMin and wakeMax), so a bound change costs O(pairs it affects), not
// O(degree).
package cp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"telamalloc/internal/buffers"
	"telamalloc/internal/intervals"
)

// Order is the state of one pairwise ordering disjunction.
type Order int8

const (
	// Unknown means neither ordering has been committed yet.
	Unknown Order = iota
	// AFirst means pair.A is below pair.B: pos(A) + size(A) <= pos(B).
	AFirst
	// BFirst means pair.B is below pair.A: pos(B) + size(B) <= pos(A).
	BFirst
)

func (o Order) String() string {
	switch o {
	case AFirst:
		return "A<B"
	case BFirst:
		return "B<A"
	default:
		return "?"
	}
}

// Pair identifies one temporally overlapping buffer pair (A < B by ID).
type Pair struct {
	A, B int32
}

// Conflict describes a propagation failure. Placements lists the IDs of
// placed buffers whose positions (transitively) explain the failure — the
// "backtrack reason" TelaMalloc's smart backtracking and ML policy consume.
//
// The model owns the conflicts it returns, so a failed placement allocates
// nothing: a *Conflict from Place, FixOrder or Propagate is valid until the
// next call to any of the three, which overwrites it. A caller that keeps
// one longer keeps a copy. The root fixpoint's conflict is the exception:
// the model keeps its own copy and returns it from every Place and
// FixOrder.
type Conflict struct {
	// Pair is the disjunction whose propagation detected the wipeout.
	Pair Pair
	// Var is the position variable whose domain wiped out, or -1 when the
	// conflict was a dead disjunction (neither ordering feasible).
	Var int32
	// Placements holds the IDs of placed buffers implicated in the failure,
	// deduplicated, in no particular order.
	Placements []int
}

func (c *Conflict) Error() string {
	return fmt.Sprintf("cp: conflict on pair (%d,%d), %d placements implicated", c.Pair.A, c.Pair.B, len(c.Placements))
}

// Stats counts solver work; TelaMalloc's evaluation reports these.
type Stats struct {
	// Propagations is the number of bound updates applied.
	Propagations int64
	// OrderFixes is the number of disjunctions resolved by propagation
	// (rather than by decisions).
	OrderFixes int64
	// Conflicts is the number of wipeouts detected.
	Conflicts int64
	// PairWakeups counts pair-propagator invocations.
	PairWakeups int64
}

type trailKind uint8

const (
	tMin trailKind = iota
	tMax
	tOrder
	tPlaced
)

// trailEntry records one undoable change. A tMin or tMax entry is also a
// link of its variable's reason chain, the "which variable caused this
// bound" breadcrumbs conflict explanation walks: by is the variable whose
// bounds or placement caused the change (-1 for a decision), and oldReason
// the trail index of the chain's previous link (-1 ends the chain). A link
// only points further down the trail, so popping the trail truncates every
// chain consistently, and an entry holds no pointer for the GC to scan.
type trailEntry struct {
	kind      trailKind
	idx       int32
	old       int64
	by        int32
	oldReason int32
}

// Model is the CP representation of one allocation problem. It is not safe
// for concurrent use.
type Model struct {
	prob *buffers.Problem
	ov   *buffers.Overlaps

	posMin, posMax []int64
	// minReason[v] and maxReason[v] are the trail indices of the latest
	// change to v's bounds, the heads of v's reason chains; -1 for none.
	minReason []int32
	maxReason []int32
	placed    []bool
	// serials is the stack of placements in the order Place made them, each
	// entry the serial of one placement (see PlacedMark); its height is the
	// number of placed buffers. nextSerial is the next placement's serial.
	serials    []uint64
	nextSerial uint64

	pairs []Pair
	order []Order
	// adj lists each variable's pairs (pairsOf) from gate[v].off, in the
	// order of ov.Neighbors[v]: slot j of v holds the pair with
	// ov.Neighbors[v][j]. slot[2k] and slot[2k+1] are pair k's slots at its
	// A and B.
	adj  []int32
	slot []int32

	// lowBits and upBits are per-variable bitmasks over v's slots, from
	// word gate[v].word: a lowBits bit marks a pair ordered with v below
	// its neighbour, an upBits bit one ordered with v above. A slot with
	// neither bit is Unknown.
	lowBits, upBits []uint64
	gate            []varGate

	// rootConflict is a copy of the conflict the root fixpoint ran into, if
	// any; Place and FixOrder return it.
	rootConflict *Conflict
	// conflict is the storage every other returned conflict lives in,
	// overwritten by the next one.
	conflict Conflict
	// conflictLevel is the decision level at which the oldest conflict not
	// yet undone by Pop was returned (0 for a root conflict), or -1 while
	// the model is at a propagation fixpoint.
	conflictLevel int

	trail  []trailEntry
	levels []int

	// queue is the pending pair-propagator worklist. queueHead indexes the
	// next entry to process; advancing the head instead of re-slicing the
	// queue keeps the backing array reusable across the model's lifetime
	// (a re-slice would permanently strand the capacity before the head).
	queue     []int32
	queueHead int
	inQueue   []bool

	stats Stats

	// scratch buffers reused by queries
	occScratch []intervals.Interval
	// walk is collect's reusable state, made on the first conflict.
	walk *reasonWalk
}

// varGate holds the per-variable facts that let a wake skip v's Unknown
// pairs wholesale. Every posMin starts at 0 (AlignUp(0)); rootMax is where
// posMax starts.
type varGate struct {
	rootMax int64
	// thrMax is the smallest rootMax among v's neighbours and thrEnd the
	// largest root end (0 + size) among them.
	thrMax, thrEnd int64
	// cntMinT and cntMaxT count v's Unknown neighbours whose posMin /
	// posMax has moved off its root value.
	cntMinT, cntMaxT int32
	// off and word are v's first slot in adj and first bitmask word.
	off, word int32
}

// NewModel builds the CP model for p and propagates it to the root
// fixpoint. The overlap adjacency may be nil, in which case it is computed.
// NewModel is O(n + pairs).
func NewModel(p *buffers.Problem, ov *buffers.Overlaps) *Model {
	if ov == nil {
		ov = buffers.ComputeOverlaps(p)
	}
	n := len(p.Buffers)
	bounds := make([]int64, 2*n)
	reasons := make([]int32, 2*n)
	for i := range reasons {
		reasons[i] = -1
	}
	m := &Model{
		prob:          p,
		ov:            ov,
		posMin:        bounds[:n:n],
		posMax:        bounds[n:],
		minReason:     reasons[:n:n],
		maxReason:     reasons[n:],
		placed:        make([]bool, n),
		serials:       make([]uint64, 0, n),
		gate:          make([]varGate, n),
		conflictLevel: -1,
	}
	var slots, words int32
	for i, b := range p.Buffers {
		m.posMin[i] = b.AlignUp(0)
		m.posMax[i] = alignDown(p.Memory-b.Size, b.Align)
		d := int32(len(ov.Neighbors[i]))
		m.gate[i] = varGate{rootMax: m.posMax[i], off: slots, word: words}
		slots += d
		words += (d + 63) / 64
	}
	m.pairs = make([]Pair, 0, slots/2)
	idx := make([]int32, 2*slots)
	m.adj, m.slot = idx[:slots:slots], idx[slots:]
	masks := make([]uint64, 2*words)
	m.lowBits, m.upBits = masks[:words:words], masks[words:]
	// Neighbour lists are sorted, so a variable's pairs with lower IDs fill
	// its first slots in the order their lower endpoints are visited here;
	// until a variable's own turn its cntMinT counts those filled slots.
	for a := 0; a < n; a++ {
		g := &m.gate[a]
		g.thrMax, g.thrEnd, g.cntMinT = math.MaxInt64, math.MinInt64, 0
		for j, bID := range ov.Neighbors[a] {
			g.thrMax = min(g.thrMax, m.gate[bID].rootMax)
			g.thrEnd = max(g.thrEnd, m.posMin[bID]+p.Buffers[bID].Size)
			if bID <= a {
				continue
			}
			k := int32(len(m.pairs))
			m.pairs = append(m.pairs, Pair{int32(a), int32(bID)})
			hb := &m.gate[bID]
			sb := hb.cntMinT
			hb.cntMinT++
			m.adj[g.off+int32(j)] = k
			m.adj[hb.off+sb] = k
			m.slot[2*k], m.slot[2*k+1] = int32(j), sb
		}
	}
	// A search that places every buffer without backtracking fixes each
	// pair's order once and raises one bound per pair, plus two entries per
	// placement: sized for that, the trail never regrows on such a search,
	// and a regrown copy is garbage the size of the trail so far.
	m.trail = make([]trailEntry, 0, 2*len(m.pairs)+2*n)
	m.order = make([]Order, len(m.pairs))
	m.inQueue = make([]bool, len(m.pairs))
	for k := range m.pairs {
		if !m.idle(int32(k)) {
			m.inQueue[k] = true
			m.queue = append(m.queue, int32(k))
		}
	}
	if c := m.Propagate(); c != nil {
		root := *c
		root.Placements = slices.Clone(c.Placements)
		m.rootConflict = &root
	}
	return m
}

func alignDown(addr, align int64) int64 {
	if align <= 1 {
		return addr
	}
	return addr - addr%align
}

// Problem returns the underlying problem.
func (m *Model) Problem() *buffers.Problem { return m.prob }

// Overlaps returns the shared overlap adjacency.
func (m *Model) Overlaps() *buffers.Overlaps { return m.ov }

// Stats returns a copy of the work counters.
func (m *Model) Stats() Stats { return m.stats }

// NumPairs returns the number of ordering disjunctions in the model.
func (m *Model) NumPairs() int { return len(m.pairs) }

// PairAt returns the k-th pair and its current ordering state.
func (m *Model) PairAt(k int) (Pair, Order) { return m.pairs[k], m.order[k] }

// MinPos returns the current lower bound of pos(buf).
func (m *Model) MinPos(buf int) int64 { return m.posMin[buf] }

// MaxPos returns the current upper bound of pos(buf).
func (m *Model) MaxPos(buf int) int64 { return m.posMax[buf] }

// Placed reports whether buf has been fixed by a Place call.
func (m *Model) Placed(buf int) bool { return m.placed[buf] }

// Position returns the fixed position of a placed buffer.
func (m *Model) Position(buf int) int64 { return m.posMin[buf] }

// RootConflict returns the conflict the root fixpoint ran into, or nil when
// the model is satisfiable as far as propagation can tell. A model with a
// root conflict has no solution.
func (m *Model) RootConflict() *Conflict { return m.rootConflict }

// Mark identifies the set of buffers placed when PlacedMark was called.
type Mark struct {
	height int
	serial uint64
}

// PlacedMark returns a mark of the buffers placed now: the height of the
// placement stack and the serial of its top entry.
func (m *Model) PlacedMark() Mark {
	mk := Mark{height: len(m.serials)}
	if mk.height > 0 {
		mk.serial = m.serials[mk.height-1]
	}
	return mk
}

// Intact reports in O(1) whether every buffer placed at mk is still placed:
// the placed set has only grown since. Placements sit on a stack, so one
// of them is unplaced only when the stack drops below it, and every entry
// pushed after that carries a fresh serial.
func (m *Model) Intact(mk Mark) bool {
	return len(m.serials) >= mk.height && (mk.height == 0 || m.serials[mk.height-1] == mk.serial)
}

// Level returns the current decision level (number of pushes).
func (m *Model) Level() int { return len(m.levels) }

// Push opens a new decision level. Pop undoes everything since the matching
// Push.
func (m *Model) Push() {
	m.levels = append(m.levels, len(m.trail))
}

// Pop restores the model to the state before the most recent Push.
func (m *Model) Pop() {
	if len(m.levels) == 0 {
		panic("cp: Pop without Push")
	}
	mark := m.levels[len(m.levels)-1]
	m.levels = m.levels[:len(m.levels)-1]
	// Entries are undone newest first, so each sees the state right after
	// it was made and can replay its counter transition in reverse.
	for len(m.trail) > mark {
		e := m.trail[len(m.trail)-1]
		m.trail = m.trail[:len(m.trail)-1]
		switch e.kind {
		case tMin:
			m.posMin[e.idx] = e.old
			m.minReason[e.idx] = e.oldReason
			if e.old == 0 {
				m.countUnknown(e.idx, -1, 0)
			}
		case tMax:
			m.posMax[e.idx] = e.old
			m.maxReason[e.idx] = e.oldReason
			if e.old == m.gate[e.idx].rootMax {
				m.countUnknown(e.idx, 0, -1)
			}
		case tOrder:
			m.flipOrder(e.idx, m.order[e.idx], +1)
			m.order[e.idx] = Order(e.old)
		case tPlaced:
			if e.old == 0 {
				m.placed[e.idx] = false
				m.serials = m.serials[:len(m.serials)-1]
			}
		}
	}
	m.clearQueue()
	if len(m.levels) < m.conflictLevel {
		m.conflictLevel = -1
	}
}

// fail records a conflict the model is about to return: it counts it,
// drops the pending worklist and notes that the model left its fixpoint
// until a Pop undoes the current level.
func (m *Model) fail(c *Conflict) *Conflict {
	m.stats.Conflicts++
	m.clearQueue()
	if m.conflictLevel < 0 {
		m.conflictLevel = len(m.levels)
	}
	return c
}

func (m *Model) clearQueue() {
	for _, k := range m.queue[m.queueHead:] {
		m.inQueue[k] = false
	}
	m.queue = m.queue[:0]
	m.queueHead = 0
}

// slots returns v's pairs in slot order (pairsOf) and the span [lo, hi)
// of v's bitmask words.
func (m *Model) slots(v int32) (ks []int32, lo, hi int32) {
	g := &m.gate[v]
	d := int32(len(m.ov.Neighbors[v]))
	return m.adj[g.off : g.off+d], g.word, g.word + (d+63)/64
}

// setMin raises the lower bound of variable v to at least val (snapped up to
// the alignment grid). by names the variable that caused the tightening (-1
// for decisions). Returns false on domain wipeout.
func (m *Model) setMin(v int32, val int64, by int32) bool {
	val = m.prob.Buffers[v].AlignUp(val)
	old := m.posMin[v]
	if val <= old {
		return true
	}
	m.minReason[v] = m.pushBound(tMin, v, old, by, m.minReason[v])
	m.posMin[v] = val
	m.stats.Propagations++
	if old == 0 {
		m.countUnknown(v, +1, 0)
	}
	if m.posMin[v] > m.posMax[v] {
		return false
	}
	m.wakeMin(v)
	return true
}

// setMax lowers the upper bound of variable v to at most val (snapped down
// to the alignment grid). Returns false on domain wipeout.
func (m *Model) setMax(v int32, val int64, by int32) bool {
	val = alignDown(val, m.prob.Buffers[v].Align)
	old := m.posMax[v]
	if val >= old {
		return true
	}
	m.maxReason[v] = m.pushBound(tMax, v, old, by, m.maxReason[v])
	m.posMax[v] = val
	m.stats.Propagations++
	if old == m.gate[v].rootMax {
		m.countUnknown(v, 0, +1)
	}
	if m.posMin[v] > m.posMax[v] {
		return false
	}
	m.wakeMax(v)
	return true
}

// pushBound trails a change of v's bound of the given kind away from old,
// caused by variable by, and returns the entry's index: the new head of the
// bound's reason chain, whose previous head was prev.
func (m *Model) pushBound(kind trailKind, v int32, old int64, by, prev int32) int32 {
	m.trail = append(m.trail, trailEntry{kind: kind, idx: v, old: old, by: by, oldReason: prev})
	return int32(len(m.trail) - 1)
}

func (m *Model) setOrder(k int32, o Order) {
	m.trail = append(m.trail, trailEntry{kind: tOrder, idx: k, old: int64(m.order[k])})
	m.flipOrder(k, o, -1)
	m.order[k] = o
	m.stats.OrderFixes++
}

// flipOrder moves pair k between Unknown and ordering o: it toggles k's
// direction bits, and for each endpoint adds d to its counters for every
// bound of the other endpoint that is off its root value (d = -1 as k
// leaves Unknown, +1 as it returns).
func (m *Model) flipOrder(k int32, o Order, d int32) {
	pr := m.pairs[k]
	lo, hi := pr.A, pr.B
	slo, shi := m.slot[2*k], m.slot[2*k+1]
	if o == BFirst {
		lo, hi, slo, shi = hi, lo, shi, slo
	}
	m.lowBits[m.gate[lo].word+slo>>6] ^= 1 << (slo & 63)
	m.upBits[m.gate[hi].word+shi>>6] ^= 1 << (shi & 63)
	m.countMoved(pr.A, pr.B, d)
	m.countMoved(pr.B, pr.A, d)
}

// countMoved adds d to w's counters for each bound of v that is off its
// root value.
func (m *Model) countMoved(v, w int32, d int32) {
	if m.posMin[v] != 0 {
		m.gate[w].cntMinT += d
	}
	if m.posMax[v] != m.gate[v].rootMax {
		m.gate[w].cntMaxT += d
	}
}

// countUnknown adds dMin and dMax to the counters of v's Unknown
// neighbours; it runs when a bound of v leaves or regains its root value.
func (m *Model) countUnknown(v int32, dMin, dMax int32) {
	nb := m.ov.Neighbors[v]
	_, lo, hi := m.slots(v)
	for w := lo; w < hi; w++ {
		word := ^(m.lowBits[w] | m.upBits[w])
		if w == hi-1 {
			word &= tailMask(len(nb))
		}
		base := int(w-lo) << 6
		for ; word != 0; word &= word - 1 {
			g := &m.gate[nb[base+bits.TrailingZeros64(word)]]
			g.cntMinT += dMin
			g.cntMaxT += dMax
		}
	}
}

// tailMask masks the valid slots of the last bitmask word of a variable
// with n pairs.
func tailMask(n int) uint64 {
	if n&63 == 0 {
		return math.MaxUint64
	}
	return 1<<(n&63) - 1
}

// idle reports whether propagatePair(k) would change nothing under the
// current bounds. Bounds sit on their alignment grids, so no snapping is
// needed. Outside setMin/setMax every pair that is not queued is idle.
func (m *Model) idle(k int32) bool {
	pr := m.pairs[k]
	a, b := pr.A, pr.B
	sa := m.prob.Buffers[a].Size
	switch m.order[k] {
	case AFirst:
		return m.posMin[a]+sa <= m.posMin[b] && m.posMax[b]-sa >= m.posMax[a]
	case BFirst:
		sb := m.prob.Buffers[b].Size
		return m.posMin[b]+sb <= m.posMin[a] && m.posMax[a]-sb >= m.posMax[b]
	default:
		sb := m.prob.Buffers[b].Size
		return m.posMin[a]+sa <= m.posMax[b] && m.posMin[b]+sb <= m.posMax[a]
	}
}

// wakeMin enqueues the pairs a raised posMin[v] can have made non-idle:
// those ordered with v below, and Unknown ones whose neighbour's posMax now
// lies below posMin[v]+size. The Unknown scan is skipped when no Unknown
// neighbour's posMax has left its root value and none of those root values
// lies below posMin[v]+size.
func (m *Model) wakeMin(v int32) {
	g := &m.gate[v]
	m.scan(v, m.lowBits, g.cntMaxT != 0 || m.posMin[v]+m.prob.Buffers[v].Size > g.thrMax)
}

// wakeMax mirrors wakeMin for a lowered posMax[v].
func (m *Model) wakeMax(v int32) {
	g := &m.gate[v]
	m.scan(v, m.upBits, g.cntMinT != 0 || m.posMax[v] < g.thrEnd)
}

// scan enqueues, in slot order, every pair of v marked in dir (plus every
// Unknown pair when unknown is set) that is neither queued nor idle.
func (m *Model) scan(v int32, dir []uint64, unknown bool) {
	ks, lo, hi := m.slots(v)
	for w := lo; w < hi; w++ {
		word := dir[w]
		if unknown {
			u := ^(m.lowBits[w] | m.upBits[w])
			if w == hi-1 {
				u &= tailMask(len(ks))
			}
			word |= u
		}
		base := int(w-lo) << 6
		for ; word != 0; word &= word - 1 {
			k := ks[base+bits.TrailingZeros64(word)]
			if !m.inQueue[k] && !m.idle(k) {
				m.inQueue[k] = true
				m.queue = append(m.queue, k)
			}
		}
	}
}

// Place fixes buffer buf at position pos inside the current decision level
// and propagates to fixpoint. It returns a Conflict if propagation detects
// unsatisfiability (the caller is then expected to Pop). Place does not
// validate that pos itself is inside the current bounds of buf; a violation
// simply surfaces as an immediate conflict. On a model whose root fixpoint
// conflicted, Place returns that conflict and changes nothing.
func (m *Model) Place(buf int, pos int64) *Conflict {
	if m.rootConflict != nil {
		return m.rootConflict
	}
	v := int32(buf)
	var was int64
	if m.placed[buf] {
		was = 1
	} else {
		m.placed[buf] = true
		m.serials = append(m.serials, m.nextSerial)
		m.nextSerial++
	}
	m.trail = append(m.trail, trailEntry{kind: tPlaced, idx: v, old: was})
	// The last two tests guard against a pos below the current minimum:
	// setMin is a no-op then, but the placement is still invalid.
	if !m.setMin(v, pos, -1) || !m.setMax(v, pos, -1) || m.posMin[buf] != pos || m.posMax[buf] != pos {
		return m.fail(m.explainVar(Pair{v, v}, v))
	}
	return m.Propagate()
}

// Propagate runs the pair propagators to fixpoint. On success it returns
// nil; otherwise the conflict explanation. A pair stays marked queued while
// it propagates, so its own bound changes do not re-enqueue it.
func (m *Model) Propagate() *Conflict {
	for m.queueHead < len(m.queue) {
		k := m.queue[m.queueHead]
		m.queueHead++
		c := m.propagatePair(k)
		m.inQueue[k] = false
		if c != nil {
			return m.fail(c)
		}
	}
	m.queue = m.queue[:0]
	m.queueHead = 0
	return nil
}

// propagatePair enforces the disjunction of pair k under current bounds.
func (m *Model) propagatePair(k int32) *Conflict {
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

// FixOrder commits the ordering of pair k by decision and propagates. Used
// by the pure-CP baseline searcher. On a model whose root fixpoint
// conflicted, FixOrder returns that conflict and changes nothing.
func (m *Model) FixOrder(k int, o Order) *Conflict {
	if m.rootConflict != nil {
		return m.rootConflict
	}
	if m.order[k] != Unknown {
		if m.order[k] == o {
			return nil
		}
		// Contradicting an already-propagated ordering: conflict.
		return m.fail(m.explainPair(m.pairs[k]))
	}
	m.setOrder(int32(k), o)
	m.inQueue[k] = true
	c := m.propagatePair(int32(k))
	m.inQueue[k] = false
	if c != nil {
		return m.fail(c)
	}
	return m.Propagate()
}

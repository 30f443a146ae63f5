package core

import (
	"cmp"
	"slices"

	"telamalloc/internal/buffers"
	"telamalloc/internal/cp"
	"telamalloc/internal/phases"
	"telamalloc/internal/telamon"
)

// telaPolicy is TelaMalloc's domain policy for the Telamon framework.
//
// The heuristic orders are static, so they are built once per subproblem:
// each phase keeps its buffers sorted by the three §5.1 criteria plus one
// cursor per order, and a decision point reads each pick from a cursor that
// skips placed buffers. Cursors only move forward while the placed set only
// grows; when a placement they saw is undone they rewind. The
// current phase's picks are handed out when a decision point opens, the
// other phases' one phase per later batch, and a skip pointer per phase
// jumps over phases with nothing left to place; the fallback follows, one
// buffer per batch. Opening a decision point thus costs O(picks), not a
// sort of every unplaced buffer nor a walk of every phase. A telaPolicy serves one search: its cursors describe that
// search's model.
type telaPolicy struct {
	cfg    Config
	groups *phases.Assignment // nil when phases are disabled
	// orders holds one entry per phase, in phase order; a single entry
	// over every buffer when phases are disabled. A single phase lives in
	// one, sparing small subproblems an allocation.
	orders []phaseOrders
	one    [1]phaseOrders
	// fallback is every buffer by decreasing area, then increasing ID: the
	// order of the last batches at a decision point.
	fallback []int
	// mark is the model's placed set at the last call: the cursors hold
	// while it is intact.
	mark cp.Mark
	// opened, picked and visited count decision points, the phase picks
	// handed out to them and the phases the phase walk looked at, and
	// rewinds the cursor rewinds: the work the tests bound.
	opened, picked, visited, rewinds int
}

// phaseOrders is one phase's buffers in the three §5.1 orders, with a
// cursor per order: every entry before next[k] in by[k] is placed.
type phaseOrders struct {
	by   [3][]int // longest lifetime, largest size, largest area first
	next [3]int
	// skip is this phase's own index while it may have an unplaced
	// buffer. Once it is known to have none, skip is a later phase index
	// with no live phase in between (see nextLive).
	skip int
}

// pickOrders are the §5.1 orders as comparators, in the order the picks
// are proposed: the longest allocation first "since it likely affects the
// most constraints", then the largest, then the largest area.
var pickOrders = [3]func(a, b buffers.Buffer) int{longerLife, largerSize, largerArea}

func longerLife(a, b buffers.Buffer) int { return cmp.Compare(b.Lifetime(), a.Lifetime()) }
func largerSize(a, b buffers.Buffer) int { return cmp.Compare(b.Size, a.Size) }
func largerArea(a, b buffers.Buffer) int { return cmp.Compare(b.Area(), a.Area()) }

func newPolicy(p *buffers.Problem, cfg Config) *telaPolicy {
	tp := &telaPolicy{cfg: cfg}
	n, numPhases := len(p.Buffers), 1
	if !cfg.DisablePhases {
		tp.groups = phases.Group(p)
		numPhases = len(tp.groups.Phases)
	}
	if numPhases <= len(tp.one) {
		tp.orders = tp.one[:numPhases]
	} else {
		tp.orders = make([]phaseOrders, numPhases)
	}
	// One backing array holds every order: three per phase, then the
	// fallback.
	backing := make([]int, 4*n)
	tp.fallback = backing[3*n:]
	for i := range tp.fallback {
		tp.fallback[i] = i
	}
	if tp.groups == nil {
		tp.orders[0].fill(p, tp.fallback, backing[:3*n])
	} else {
		off := 0
		for i, ph := range tp.groups.Phases {
			k := len(ph.Buffers)
			tp.orders[i].fill(p, ph.Buffers, backing[3*off:3*(off+k)])
			off += k
		}
	}
	tp.rewind()
	sortStable(p, tp.fallback, largerArea)
	return tp
}

// rewind resets every cursor and skip pointer: nothing is known placed.
func (tp *telaPolicy) rewind() {
	for i := range tp.orders {
		tp.orders[i].next = [3]int{}
		tp.orders[i].skip = i
	}
}

// sync rewinds the cursors if a buffer placed at the last call has been
// unplaced since: until one is, the placed set only grows and the cursors
// hold. A placement made and undone between two calls, such as a failed
// Place and its Pop, leaves them be.
func (tp *telaPolicy) sync(m *cp.Model) {
	if !m.Intact(tp.mark) {
		tp.rewinds++
		tp.rewind()
	}
	tp.mark = m.PlacedMark()
}

// fill sorts ids into the three orders, stored back to back in dst. The
// sorts are stable, so ties go to the buffer listed first in ids.
func (po *phaseOrders) fill(p *buffers.Problem, ids, dst []int) {
	for k, order := range pickOrders {
		po.by[k] = dst[k*len(ids) : (k+1)*len(ids)]
		copy(po.by[k], ids)
		sortStable(p, po.by[k], order)
	}
}

// sortStable stably sorts buffer IDs by the given buffer order.
func sortStable(p *buffers.Problem, ids []int, order func(a, b buffers.Buffer) int) {
	slices.SortStableFunc(ids, func(a, b int) int { return order(p.Buffers[a], p.Buffers[b]) })
}

// Candidates implements telamon.Policy: at each decision point, propose the
// longest-lived, largest and largest-area unplaced blocks (§5.1), preferring
// the phase of the most recently placed block and falling back to the other
// phases in contention order (§5.3), one phase per batch. Every remaining
// unplaced block then follows as a last-resort fallback (§6.5 describes the
// same idea for the ML path), largest area first, one per batch, unless
// Config.NoFallbackCandidates asks for the paper's strict three picks.
//
// Opening a point builds only the preferred phase's picks. A later cursor
// is one more than a position, so it is never 0: a position below
// len(tp.orders) is the next phase of the walk, and position -
// len(tp.orders) the next fallback position.
func (tp *telaPolicy) Candidates(st *telamon.State, cursor int, dst []int) ([]int, int) {
	tp.sync(st.Model)
	if cursor == 0 {
		return tp.open(st, dst)
	}
	pos := cursor - 1
	if pos < len(tp.orders) {
		i := tp.nextLive(st.Model, pos)
		if i == tp.currentPhase(st) {
			i = tp.nextLive(st.Model, i+1)
		}
		if i < len(tp.orders) {
			n := len(dst)
			dst = tp.orders[i].appendPicks(st.Model, dst)
			tp.picked += len(dst) - n
			return dst, i + 2 // position i+1
		}
		pos = len(tp.orders)
	}
	if tp.cfg.NoFallbackCandidates {
		return dst, -1
	}
	// Every phase's picks are in the queue by now, so the fallback hands
	// out the buffers that are neither placed nor picks.
	for j := pos - len(tp.orders); j < len(tp.fallback); j++ {
		if b := tp.fallback[j]; !st.Model.Placed(b) && !tp.isPick(st.Model, b) {
			return append(dst, b), len(tp.orders) + j + 2 // fallback position j+1
		}
	}
	return dst, -1
}

// open appends a new decision point's first batch to dst, the point's room
// for three candidates: the current phase's picks, or with phases disabled
// the one entry's, which covers every buffer and leaves no phase to walk.
// Three is the most one phase gives, so opening a point allocates nothing.
func (tp *telaPolicy) open(st *telamon.State, dst []int) ([]int, int) {
	tp.opened++
	cur, pos := 0, len(tp.orders)
	if tp.groups != nil {
		cur, pos = tp.currentPhase(st), 0
	}
	if cur >= 0 {
		dst = tp.orders[cur].appendPicks(st.Model, dst)
		tp.picked += len(dst)
	}
	return dst, pos + 1
}

// isPick reports whether the unplaced buffer b is one of its phase's picks:
// the first unplaced buffer of one of the phase's orders.
func (tp *telaPolicy) isPick(m *cp.Model, b int) bool {
	po := &tp.orders[0]
	if tp.groups != nil {
		po = &tp.orders[tp.groups.PhaseOf[b]]
	}
	for k, order := range po.by {
		if order[po.front(k, m)] == b {
			return true
		}
	}
	return false
}

// nextLive returns the first phase at or after i with an unplaced buffer,
// or len(tp.orders) when there is none. Phases found fully placed point
// past themselves, and the walk then points every phase it crossed at the
// phase it found, so each dead phase is crossed O(1) times amortised until
// the next rewind. Placed buffers stay placed until then, so a dead phase
// stays dead.
func (tp *telaPolicy) nextLive(m *cp.Model, i int) int {
	j := i
	for j < len(tp.orders) {
		tp.visited++
		po := &tp.orders[j]
		if po.skip != j {
			j = po.skip
			continue
		}
		if po.front(0, m) < len(po.by[0]) {
			break
		}
		po.skip = j + 1
		j++
	}
	for i < j {
		next := tp.orders[i].skip
		tp.orders[i].skip = j
		i = next
	}
	return j
}

// appendPicks appends the phase's first unplaced buffer in each order,
// skipping repeats. Phases partition the buffers, so picks of different
// phases never collide.
func (po *phaseOrders) appendPicks(m *cp.Model, out []int) []int {
	base := len(out)
	for k, order := range po.by {
		if i := po.front(k, m); i < len(order) && !slices.Contains(out[base:], order[i]) {
			out = append(out, order[i])
		}
	}
	return out
}

// front moves order k's cursor past placed buffers and returns it: the
// position of the order's first unplaced buffer, or its length.
func (po *phaseOrders) front(k int, m *cp.Model) int {
	order, i := po.by[k], po.next[k]
	for i < len(order) && m.Placed(order[i]) {
		i++
	}
	po.next[k] = i
	return i
}

// currentPhase returns the phase of the most recently committed placement,
// or -1 when nothing is placed yet.
func (tp *telaPolicy) currentPhase(st *telamon.State) int {
	for i := len(st.Stack) - 1; i >= 0; i-- {
		if b := st.Stack[i].Placed; b >= 0 {
			return tp.groups.PhaseOf[b]
		}
	}
	return -1
}

// Placement implements telamon.Policy.
func (tp *telaPolicy) Placement(st *telamon.State, buf int) (int64, bool) {
	if tp.cfg.Placement == SkylineTop {
		return skylineTop(st, buf)
	}
	return st.Model.LowestFeasible(buf)
}

// skylineTop places buf on top of its placed temporal neighbours —
// Figure 8a's simple strategy, kept for ablation.
func skylineTop(st *telamon.State, buf int) (int64, bool) {
	var top int64
	for _, nb := range st.Model.Overlaps().Neighbors[buf] {
		if st.Model.Placed(nb) {
			if end := st.Model.Position(nb) + st.Prob.Buffers[nb].Size; end > top {
				top = end
			}
		}
	}
	b := st.Prob.Buffers[buf]
	if top < st.Model.MinPos(buf) {
		top = st.Model.MinPos(buf)
	}
	pos := b.AlignUp(top)
	if pos > st.Model.MaxPos(buf) {
		return 0, false
	}
	return pos, true
}

// BacktrackTarget implements telamon.Policy: delegate to the learned
// chooser when configured, otherwise use the framework default.
func (tp *telaPolicy) BacktrackTarget(st *telamon.State, dp *telamon.DecisionPoint) (int, bool) {
	if tp.cfg.Chooser != nil {
		// Learned choosers are user-supplied code: run under attribution so
		// a panic surfaces as "panic in backtrack chooser", not a crash.
		if t, ok := safeChoose(tp.cfg.Chooser, st, dp); ok {
			return t, true
		}
	}
	return 0, false
}

var _ telamon.Policy = (*telaPolicy)(nil)

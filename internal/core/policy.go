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
// grows; when the model reports an undone placement they rewind. Opening a
// decision point thus costs O(picks), not a sort of every unplaced buffer.
// A telaPolicy serves one search: its cursors describe that search's model.
type telaPolicy struct {
	cfg    Config
	groups *phases.Assignment // nil when phases are disabled
	// orders holds one entry per phase, in phase order; a single entry
	// over every buffer when phases are disabled. A single phase lives in
	// one, sparing small subproblems an allocation.
	orders []phaseOrders
	one    [1]phaseOrders
	// fallback is every buffer by decreasing area, then increasing ID: the
	// tail handed out at expensive decision points.
	fallback []int
	// undone is the model's PlacementsUndone count at the last call.
	undone uint64
	// scratch collects the picks (at most three per phase) before they
	// are copied out at their exact length: a decision point keeps its
	// picks for its lifetime.
	scratch []int
}

// phaseOrders is one phase's buffers in the three §5.1 orders, with a
// cursor per order: every entry before next[k] in by[k] is placed.
type phaseOrders struct {
	by   [3][]int // longest lifetime, largest size, largest area first
	next [3]int
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
	// One backing array holds every order — three per phase, then the
	// fallback — and the picks scratch.
	backing := make([]int, 4*n+3*numPhases)
	tp.fallback = backing[3*n : 4*n]
	tp.scratch = backing[4*n : 4*n : len(backing)]
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
	sortStable(p, tp.fallback, largerArea)
	return tp
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
// phases in contention order (§5.3). At expensive decision points the tail
// adds every remaining unplaced block as a final fallback, largest area
// first.
func (tp *telaPolicy) Candidates(st *telamon.State) (picks, tail []int) {
	if u := st.Model.PlacementsUndone(); u != tp.undone {
		tp.undone = u
		for i := range tp.orders {
			tp.orders[i].next = [3]int{}
		}
	}
	picks = tp.scratch[:0]
	cur := -1
	if tp.groups != nil {
		cur = tp.currentPhase(st)
	}
	if cur >= 0 {
		picks = tp.orders[cur].appendPicks(st.Model, picks)
	}
	for i := range tp.orders {
		if i != cur {
			picks = tp.orders[i].appendPicks(st.Model, picks)
		}
	}
	picks = slices.Clone(picks)
	if tp.expensive(st) {
		// Last-resort fallback (§6.5 describes the same idea for the ML
		// path): after the heuristic picks, try the remaining unplaced
		// buffers, largest area first, before declaring the decision point
		// exhausted. The paper's strict configuration (3 candidates per
		// decision point, more major backtracks) is available via
		// Config.NoFallbackCandidates; a learned step gate (§8.3) can make
		// the call per decision point via Config.Gate.
		tail = tp.fallback
	}
	return picks, tail
}

// appendPicks appends the phase's first unplaced buffer in each order,
// skipping repeats. Phases partition the buffers, so picks of different
// phases never collide.
func (po *phaseOrders) appendPicks(m *cp.Model, out []int) []int {
	base := len(out)
	for k, order := range po.by {
		i := po.next[k]
		for i < len(order) && m.Placed(order[i]) {
			i++
		}
		po.next[k] = i
		if i < len(order) && !slices.Contains(out[base:], order[i]) {
			out = append(out, order[i])
		}
	}
	return out
}

// expensive reports whether this decision point should receive the full
// fallback candidate set.
func (tp *telaPolicy) expensive(st *telamon.State) bool {
	if tp.cfg.Gate != nil {
		// Learned gates are user-supplied code: run under attribution so a
		// panic surfaces as "panic in candidate gate", not a crash.
		return safeGate(tp.cfg.Gate, st)
	}
	return !tp.cfg.NoFallbackCandidates
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

// Package telamon implements the search framework the paper builds
// TelaMalloc on (§4): a wrapper around a constraint solver that, instead of
// asking the solver for a complete solution, gives a *policy* callback
// control over one variable-assignment choice at a time. The framework owns
// the mechanics — the decision stack, solver state push/pop, minor and
// major backtracks, candidate promotion and stuck detection — while the
// policy owns all domain knowledge (which buffer to place next, where, and
// how far to backjump).
//
// TelaMalloc (internal/core) is one policy; the single-strategy ablation
// searchers of §7.2 and the ML-guided backtracking of §6 are others.
package telamon

import (
	"fmt"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/cp"
)

// Status is the outcome of a search.
type Status int

const (
	// Solved means every buffer was placed.
	Solved Status = iota
	// Exhausted means the search space was exhausted without a solution.
	Exhausted
	// Budget means the step budget or deadline ran out first.
	Budget
	// Cancelled means the Options.Cancel hook aborted the search. A
	// cancelled search says nothing about the subproblem's feasibility.
	Cancelled
	// Invalid means the input problem failed validation before any search
	// ran. The framework itself never returns it; core.Solve uses it to
	// keep invalid input distinguishable from an exhausted search.
	Invalid
	// Internal means the search was aborted by a contained panic — in a
	// worker, a user-supplied hook, or the solver itself. The framework
	// never returns it directly; core.Solve's panic-containment boundary
	// converts recovered panics into it so a misbehaving component can
	// never crash the host process.
	Internal
)

func (s Status) String() string {
	switch s {
	case Solved:
		return "solved"
	case Exhausted:
		return "exhausted"
	case Budget:
		return "budget-exceeded"
	case Cancelled:
		return "cancelled"
	case Invalid:
		return "invalid-problem"
	case Internal:
		return "internal-error"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// DecisionPoint is one node on the search stack: an ordered queue of
// candidate buffers, the candidate that was successfully committed (if
// any), and bookkeeping for smart backtracking.
type DecisionPoint struct {
	// Queue holds candidate buffer IDs in the order the policy wants them
	// tried: the policy's batches pulled so far, or after a candidate
	// promotion the merged queue.
	Queue []int
	// more is the policy's cursor for the next batch, or negative once no
	// batch follows.
	more int
	// Next indexes the first untried position of Queue.
	Next int
	// tried records candidates already attempted at this decision point.
	// The state a decision point sees is exactly the placement prefix below
	// it, which a backjump to this point restores unchanged — so retrying a
	// candidate that already failed here would deterministically fail
	// again. Filtering retries is therefore sound and guarantees that
	// candidate promotion cannot cycle.
	tried triedSet
	// Placed is the committed buffer at this point, -1 before a commit.
	Placed int
	// Pos is the committed position (valid when Placed >= 0).
	Pos int64
	// SubtreeBacktracks counts backtracks that occurred in the subtree
	// rooted here; child counts are folded in when children are popped.
	// Drives the stuck-detection heuristic of §5.4.
	SubtreeBacktracks int
	// LastConflict is the most recent solver conflict observed while trying
	// candidates at this point. It points at the point's own copy, so
	// conflicts deeper in its subtree leave it as it was.
	LastConflict *cp.Conflict
	// conflict holds LastConflict's copy, and first the opening batch.
	conflict cp.Conflict
	first    [3]int
}

// keepConflict copies c, which the model overwrites on its next operation,
// into dp's own storage and makes it dp's LastConflict.
func (dp *DecisionPoint) keepConflict(c *cp.Conflict) {
	dp.conflict.Pair, dp.conflict.Var = c.Pair, c.Var
	dp.conflict.Placements = append(dp.conflict.Placements[:0], c.Placements...)
	dp.LastConflict = &dp.conflict
}

// triedSet is a decision point's set of tried candidates. Most points try
// only a few, so the first inlineTried live inline and only a point that
// tries more makes a map.
type triedSet struct {
	n      int
	inline [inlineTried]int
	more   map[int]struct{}
}

const inlineTried = 6

func (s *triedSet) has(b int) bool {
	for _, t := range s.inline[:min(s.n, inlineTried)] {
		if t == b {
			return true
		}
	}
	if s.more == nil {
		return false
	}
	_, ok := s.more[b]
	return ok
}

// add inserts b, which must not be in the set yet.
func (s *triedSet) add(b int) {
	if s.n < inlineTried {
		s.inline[s.n] = b
	} else {
		if s.more == nil {
			s.more = make(map[int]struct{})
		}
		s.more[b] = struct{}{}
	}
	s.n++
}

// State is the live search state handed to the policy.
type State struct {
	Model *cp.Model
	Prob  *buffers.Problem
	// Stack holds open decision points, root first.
	Stack []*DecisionPoint
	// PlacedLevel[buf] is the stack index at which buf was placed, or -1.
	PlacedLevel []int
	// Stats accumulates search-effort counters.
	Stats Stats
}

// Depth returns the current stack depth.
func (st *State) Depth() int { return len(st.Stack) }

// Policy supplies the domain knowledge for the search.
type Policy interface {
	// Candidates appends the next batch of a decision point's candidates
	// to dst and returns it with the cursor for the batch after, or with a
	// negative cursor when this batch was the last. Cursor 0 opens the
	// point, before it is pushed onto the stack, with dst an empty slice
	// over the point's own room for three candidates, so an opening batch
	// that fits costs no allocation; the point owns what that call
	// returns. Later cursors are whatever the previous call returned,
	// opaque to the framework and never 0. The framework
	// asks for a later batch only once it has walked every candidate so
	// far, and only while the model is at the point's own placement prefix
	// — the point is on top of the stack and uncommitted — so the batches
	// joined read as one eager queue. Batches may be empty; a point whose
	// batches hold no candidate is exhausted.
	Candidates(st *State, cursor int, dst []int) ([]int, int)
	// Placement chooses the position to try for buf in the current state.
	// Returning ok=false marks the candidate as dead at this point.
	Placement(st *State, buf int) (pos int64, ok bool)
	// BacktrackTarget may override the major-backtrack destination: the
	// stack index to resume at. Returning ok=false selects the framework's
	// default (conflict-driven backjump when enabled, else a fixed hop).
	BacktrackTarget(st *State, exhausted *DecisionPoint) (target int, ok bool)
}

// Options tunes the framework mechanics.
type Options struct {
	// MaxSteps caps placement attempts, including failed ones (0 = none).
	// The paper's large-scale ablation uses 500,000.
	MaxSteps int64
	// Deadline aborts the search when passed (zero = none).
	Deadline time.Time
	// StuckThreshold is the subtree-backtrack count beyond which the search
	// escapes to the deepest stuck ancestor (§5.4; the paper uses ~100).
	// Zero selects the default of 100; negative disables stuck detection.
	StuckThreshold int
	// MaxCandidatesPerLevel caps a decision point's queue after candidate
	// promotion, preventing unbounded growth (§5.4). Zero selects 64.
	MaxCandidatesPerLevel int
	// FixedBacktrack is the number of levels a major backtrack jumps when
	// conflict-driven targeting is disabled or has no information. Zero
	// selects 1.
	FixedBacktrack int
	// DisableConflictDriven turns off conflict-driven backjumps (used by
	// the ablation baselines, which "go to the last valid point").
	DisableConflictDriven bool
	// DisablePromotion turns off prepending failed candidates to the
	// backtrack target's queue.
	DisablePromotion bool
	// Cancel, when non-nil, is polled periodically during the search; the
	// first true return aborts the search with status Cancelled. It may be
	// called from the search goroutine only, but its result may be
	// computed from state shared with other goroutines — this is the
	// cooperative-cancellation hook the parallel subproblem solver uses to
	// stop sibling searches once one component definitively fails.
	Cancel func() bool
	// TestHook, when non-nil, is called on every budget check — at least
	// once per candidate attempt — making it a deterministic per-step
	// instrumentation point for fault injection (internal/faultinject).
	// Returning true forces the search to stop with status Budget
	// (injected starvation); the hook may also stall or panic, and panics
	// are contained by core.Solve's recovery boundary. Test-only: must be
	// nil in production configurations.
	TestHook func() bool
	// OnSample, when non-nil, receives the number of steps taken since the
	// previous sample. It fires on the same call-counter stride as the
	// deadline/cancellation polls — at most once per budgetPollStride
	// budget checks, plus a final flush when the search returns — so live
	// observers (the obs layer's solver counters) see search progress
	// without the hot loop allocating, locking, or branching per step. It
	// runs on the search goroutine; implementations must be cheap and safe
	// to call from concurrent subproblem workers (an atomic add).
	OnSample func(stepsDelta int64)
}

func (o Options) stuckThreshold() int {
	switch {
	case o.StuckThreshold == 0:
		return 100
	case o.StuckThreshold < 0:
		return 1 << 30
	default:
		return o.StuckThreshold
	}
}

func (o Options) maxCandidates() int {
	if o.MaxCandidatesPerLevel == 0 {
		return 64
	}
	return o.MaxCandidatesPerLevel
}

func (o Options) fixedBacktrack() int {
	if o.FixedBacktrack <= 0 {
		return 1
	}
	return o.FixedBacktrack
}

// Stats counts search effort. Steps matches the paper's step metric: every
// attempted placement, successful or not.
type Stats struct {
	Steps           int64
	Placements      int64
	MinorBacktracks int64
	MajorBacktracks int64
	MaxDepth        int
	SolverStats     cp.Stats
}

// Backtracks returns minor + major backtracks.
func (s Stats) Backtracks() int64 { return s.MinorBacktracks + s.MajorBacktracks }

// Result is the outcome of a search.
type Result struct {
	Status   Status
	Solution *buffers.Solution
	Stats    Stats
}

// Search runs the policy-guided search on problem p. ov may be nil.
func Search(p *buffers.Problem, ov *buffers.Overlaps, policy Policy, opts Options) Result {
	st := &State{
		Model:       cp.NewModel(p, ov),
		Prob:        p,
		PlacedLevel: make([]int, len(p.Buffers)),
	}
	for i := range st.PlacedLevel {
		st.PlacedLevel[i] = -1
	}
	s := &searcher{st: st, policy: policy, opts: opts}
	res := s.run()
	if opts.OnSample != nil {
		// Final flush: whatever the stride did not report yet, so sampled
		// totals converge to the exact step count once the search returns.
		if d := st.Stats.Steps - s.sampled; d > 0 {
			opts.OnSample(d)
		}
	}
	res.Stats = st.Stats
	res.Stats.SolverStats = st.Model.Stats()
	return res
}

type searcher struct {
	st     *State
	policy Policy
	opts   Options
	// checks counts outOfBudget calls; deadline and cancellation are
	// polled on a stride of it. Polling on Stats.Steps is wrong: Steps
	// does not advance while candidates are skipped or during
	// major-backtrack cascades, so a stuck search could overrun its
	// deadline indefinitely. The call counter advances on every budget
	// check regardless of search progress.
	checks int64
	// stop latches the terminal status once a budget check fires, so
	// every later check returns the same verdict without re-polling.
	stop Status
	// sampled is the step count already reported through opts.OnSample.
	sampled int64
	// merged is the scratch set of the promoted queue under construction.
	merged idSet
	// points is the chunk new decision points are carved from: one
	// allocation per chunk, not per point. Points are never reused, as
	// callers may key state by *DecisionPoint.
	points []DecisionPoint
}

// The chunks decision points are carved from double in size from
// minPointChunk up to maxPointChunk. The floor keeps a short search's
// set-up small. The cap bounds what a chunk pins: one point still on the
// stack keeps its whole chunk alive, and a backtracking search leaves
// points from many chunks on its stack.
const (
	minPointChunk = 8
	maxPointChunk = 32
)

// budgetPollStride is how many outOfBudget calls pass between time/cancel
// polls. outOfBudget runs at least once per candidate attempt, so the worst
// case overrun is a few hundred placement attempts — microseconds.
const budgetPollStride = 256

func (s *searcher) outOfBudget() bool {
	if s.stop != Solved {
		return true
	}
	if s.opts.MaxSteps > 0 && s.st.Stats.Steps >= s.opts.MaxSteps {
		s.stop = Budget
		return true
	}
	// The test hook runs on every check, not on the poll stride:
	// fault-injection points must fire at deterministic step counts
	// regardless of how the stride happens to align.
	if s.opts.TestHook != nil && s.opts.TestHook() {
		s.stop = Budget
		return true
	}
	s.checks++
	if s.checks%budgetPollStride == 1 {
		// The sample rides the poll stride: one predicted branch per check
		// in the common case, one callback per stride when progress was
		// made — the hot loop stays allocation-free with observers on.
		if s.opts.OnSample != nil {
			if d := s.st.Stats.Steps - s.sampled; d > 0 {
				s.opts.OnSample(d)
				s.sampled = s.st.Stats.Steps
			}
		}
		if s.opts.Cancel != nil && s.opts.Cancel() {
			s.stop = Cancelled
			return true
		}
		if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) {
			s.stop = Budget
			return true
		}
	}
	return false
}

func (s *searcher) run() Result {
	st := s.st
	// Initial propagation catches problems infeasible from the start.
	st.Model.Push()
	if c := st.Model.Propagate(); c != nil {
		return Result{Status: Exhausted}
	}
	for {
		if st.Model.AllPlaced() {
			return Result{Status: Solved, Solution: &buffers.Solution{Offsets: st.Model.Solution()}}
		}
		if s.outOfBudget() {
			return Result{Status: s.stop}
		}
		dp := s.top()
		if dp == nil || dp.Placed >= 0 {
			dp = s.openDecisionPoint()
		}
		if s.tryCandidates(dp) {
			continue // committed; descend
		}
		if s.outOfBudget() {
			return Result{Status: s.stop}
		}
		// Queue exhausted: major backtrack.
		st.Stats.MajorBacktracks++
		dp.SubtreeBacktracks++
		if !s.majorBacktrack(dp) {
			return Result{Status: Exhausted}
		}
	}
}

func (s *searcher) top() *DecisionPoint {
	if len(s.st.Stack) == 0 {
		return nil
	}
	return s.st.Stack[len(s.st.Stack)-1]
}

func (s *searcher) openDecisionPoint() *DecisionPoint {
	st := s.st
	dp := s.newPoint()
	dp.Placed = -1
	dp.Queue, dp.more = s.policy.Candidates(st, 0, dp.first[:0])
	st.Stack = append(st.Stack, dp)
	if d := len(st.Stack); d > st.Stats.MaxDepth {
		st.Stats.MaxDepth = d
	}
	return dp
}

// newPoint returns a zeroed decision point from the current chunk, starting
// a chunk twice the size of the last one when it is full.
func (s *searcher) newPoint() *DecisionPoint {
	if len(s.points) == cap(s.points) {
		s.points = make([]DecisionPoint, 0, min(max(2*cap(s.points), minPointChunk), maxPointChunk))
	}
	s.points = s.points[:len(s.points)+1]
	return &s.points[len(s.points)-1]
}

// pull appends dp's next batch to its queue and reports whether dp had a
// batch left to ask for. Every consumer of later batches goes through it,
// and only while the model is at dp's placement prefix.
func (s *searcher) pull(dp *DecisionPoint) bool {
	if dp.more < 0 {
		return false
	}
	dp.Queue, dp.more = s.policy.Candidates(s.st, dp.more, dp.Queue)
	return true
}

// tryCandidates attempts candidates until one commits. Returns true on a
// successful placement. The budget is checked once per queue entry, exactly
// as if every batch had been appended to the queue when the point opened.
func (s *searcher) tryCandidates(dp *DecisionPoint) bool {
	st := s.st
	for {
		for dp.Next >= len(dp.Queue) {
			if !s.pull(dp) {
				return false
			}
		}
		if s.outOfBudget() {
			return false
		}
		buf := dp.Queue[dp.Next]
		dp.Next++
		if st.Model.Placed(buf) || dp.tried.has(buf) {
			continue
		}
		dp.tried.add(buf)
		st.Stats.Steps++
		pos, ok := s.policy.Placement(st, buf)
		if !ok {
			st.Stats.MinorBacktracks++
			dp.SubtreeBacktracks++
			continue
		}
		st.Model.Push()
		if c := st.Model.Place(buf, pos); c != nil {
			dp.keepConflict(c)
			st.Model.Pop()
			st.Stats.MinorBacktracks++
			dp.SubtreeBacktracks++
			continue
		}
		dp.Placed = buf
		dp.Pos = pos
		st.PlacedLevel[buf] = len(st.Stack) - 1
		st.Stats.Placements++
		return true
	}
}

// candidates calls yield on dp's candidates from position from on, in
// order, pulling batches as it goes, until yield returns false. It must run
// while the model is at dp's placement prefix.
func (s *searcher) candidates(dp *DecisionPoint, from int, yield func(int) bool) {
	for {
		for ; from < len(dp.Queue); from++ {
			if !yield(dp.Queue[from]) {
				return
			}
		}
		if !s.pull(dp) {
			return
		}
	}
}

// majorBacktrack unwinds the stack to the chosen target and resumes there.
// Returns false when the search must terminate (backtracked past the root).
func (s *searcher) majorBacktrack(exhausted *DecisionPoint) bool {
	st := s.st
	if len(st.Stack) == 1 {
		// The root decision point ran dry: nothing to backtrack to.
		st.Stack = st.Stack[:0]
		return false
	}
	target, stuck := s.chooseTarget(exhausted)
	if target < 0 {
		s.unwindTo(-1)
		return false
	}
	if s.opts.DisablePromotion {
		s.unwindTo(target)
	} else {
		s.promote(exhausted, target)
	}
	if stuck {
		// Restart the escape point's counter so the escape is not
		// immediately re-triggered by its own history.
		st.Stack[target].SubtreeBacktracks = 0
	}
	return true
}

// chooseTarget picks the stack index to resume at and reports whether the
// stuck-detection escape fired. Precedence: policy override, stuck
// detection, conflict-driven backjump, fixed hop.
func (s *searcher) chooseTarget(exhausted *DecisionPoint) (int, bool) {
	st := s.st
	topIdx := len(st.Stack) - 1
	target := -2
	if t, ok := s.policy.BacktrackTarget(st, exhausted); ok {
		target = clamp(t, -1, topIdx-1)
	}
	if target == -2 && !s.opts.DisableConflictDriven && exhausted.LastConflict != nil {
		if t, ok := s.conflictTarget(exhausted.LastConflict); ok {
			target = t
		}
	}
	if target == -2 {
		target = topIdx - s.opts.fixedBacktrack()
		if target < 0 {
			target = 0
		}
	}
	// Stuck detection (§5.4): if an ancestor's subtree accumulated too many
	// backtracks, the search is stuck inside it — escape to the lowest
	// (shallowest) such ancestor.
	threshold := s.opts.stuckThreshold()
	for i := 0; i < topIdx; i++ {
		if st.Stack[i].SubtreeBacktracks > threshold {
			if i < target {
				return i, true
			}
			break
		}
	}
	return target, false
}

// conflictTarget implements the paper's smart backjump: go to the
// second-to-last conflicting placement.
func (s *searcher) conflictTarget(c *cp.Conflict) (int, bool) {
	st := s.st
	best, second := -1, -1 // two deepest conflicting levels
	for _, buf := range c.Placements {
		lvl := st.PlacedLevel[buf]
		if lvl < 0 {
			continue
		}
		switch {
		case lvl > best:
			second = best
			best = lvl
		case lvl > second && lvl != best:
			second = lvl
		}
	}
	if second >= 0 {
		return second, true
	}
	if best >= 0 {
		return best, true
	}
	return 0, false
}

// promote unwinds to target and puts the exhausted point's candidates ahead
// of the target's remaining ones, deduplicated and capped at
// Options.MaxCandidatesPerLevel: the failed candidates are tried again
// under the shallower prefix (§5.4). Candidates the target has already
// tried would fail identically (same placement prefix) and are dropped.
// Only the batches the cap reaches are pulled: the promoted part is read
// under the exhausted point's placements, before unwinding, and the rest
// under the target's, after; the merged queue replaces the target's
// remaining batches.
func (s *searcher) promote(exhausted *DecisionPoint, target int) {
	st := s.st
	dp := st.Stack[target]
	limit := s.opts.maxCandidates()
	s.merged.reset(len(st.Prob.Buffers))
	var queue []int
	promoted, full := false, false
	s.candidates(exhausted, 0, func(b int) bool {
		promoted = true
		if dp.tried.has(b) || !s.merged.add(b) {
			return true
		}
		queue = append(queue, b)
		full = len(queue) >= limit
		return !full
	})
	s.unwindTo(target)
	if !promoted {
		return
	}
	if !full {
		s.candidates(dp, dp.Next, func(b int) bool {
			if s.merged.add(b) {
				queue = append(queue, b)
			}
			return len(queue) < limit
		})
	}
	dp.Queue, dp.more, dp.Next = queue, -1, 0
}

// unwindTo pops decision points above target, undoing their placements and
// folding their backtrack counts into the target; the target's own
// placement is undone too so its remaining candidates can be retried.
// target == -1 unwinds everything.
func (s *searcher) unwindTo(target int) {
	st := s.st
	var carried int
	for len(st.Stack)-1 > target {
		dp := st.Stack[len(st.Stack)-1]
		st.Stack = st.Stack[:len(st.Stack)-1]
		carried += dp.SubtreeBacktracks
		if dp.Placed >= 0 {
			st.PlacedLevel[dp.Placed] = -1
			dp.Placed = -1
			st.Model.Pop()
		}
	}
	if target < 0 {
		return
	}
	dp := st.Stack[target]
	dp.SubtreeBacktracks += carried
	if dp.Placed >= 0 {
		st.PlacedLevel[dp.Placed] = -1
		dp.Placed = -1
		st.Model.Pop()
	}
}

// idSet is a reusable set of buffer IDs that clears in O(1): a member's
// mark equals the current generation.
type idSet struct {
	gen  uint32
	mark []uint32
}

// reset empties the set, sizing it for IDs below n on first use.
func (s *idSet) reset(n int) {
	if s.mark == nil {
		s.mark = make([]uint32, n)
	}
	s.gen++
	if s.gen == 0 { // wrapped: stale marks could alias the new generation
		clear(s.mark)
		s.gen = 1
	}
}

// add inserts b and reports whether it was new.
func (s *idSet) add(b int) bool {
	if s.mark[b] == s.gen {
		return false
	}
	s.mark[b] = s.gen
	return true
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

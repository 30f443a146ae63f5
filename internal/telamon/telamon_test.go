package telamon

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"telamalloc/internal/buffers"
	"telamalloc/internal/cp"
)

// idOrderPolicy is a minimal policy: candidates in ID order, in one batch,
// placement at the solver's lowest feasible position, default backjumps.
type idOrderPolicy struct{}

func (idOrderPolicy) Candidates(st *State, _ int, dst []int) ([]int, int) {
	for i := range st.Prob.Buffers {
		if !st.Model.Placed(i) {
			dst = append(dst, i)
		}
	}
	return dst, -1
}

func (idOrderPolicy) Placement(st *State, buf int) (int64, bool) {
	return st.Model.LowestFeasible(buf)
}

func (idOrderPolicy) BacktrackTarget(st *State, dp *DecisionPoint) (int, bool) {
	return 0, false
}

func searchOK(t *testing.T, p *buffers.Problem, opts Options) Result {
	t.Helper()
	res := Search(p, nil, idOrderPolicy{}, opts)
	if res.Status != Solved {
		t.Fatalf("status = %v, want solved (stats %+v)", res.Status, res.Stats)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	return res
}

func TestSearchTrivial(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
			{Start: 10, End: 15, Size: 8},
		},
		Memory: 8,
	}
	p.Normalize()
	res := searchOK(t, p, Options{})
	if res.Stats.Placements != 3 {
		t.Errorf("placements = %d, want 3", res.Stats.Placements)
	}
	if res.Stats.Backtracks() != 0 {
		t.Errorf("backtracks = %d, want 0", res.Stats.Backtracks())
	}
}

func TestSearchNeedsBacktracking(t *testing.T) {
	// ID-order placement at lowest position paints itself into a corner on
	// this instance unless it backtracks: buffer 2 (the long one) must not
	// sit at the bottom, but ID order tries it early.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 4, Size: 4},
			{Start: 1, End: 8, Size: 4}, // long one; lowest-feasible puts it at 4
			{Start: 4, End: 8, Size: 4},
			{Start: 4, End: 8, Size: 4},
		},
		Memory: 12,
	}
	p.Normalize()
	searchOK(t, p, Options{})
}

func TestSearchExhaustedOnInfeasible(t *testing.T) {
	p := &buffers.Problem{Memory: 8}
	for i := 0; i < 3; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 5, Size: 4})
	}
	p.Normalize()
	res := Search(p, nil, idOrderPolicy{}, Options{})
	if res.Status != Exhausted {
		t.Errorf("status = %v, want exhausted", res.Status)
	}
}

func TestSearchBudget(t *testing.T) {
	// A deliberately hard instance with a tiny step cap.
	rng := rand.New(rand.NewSource(5))
	p := &buffers.Problem{Memory: 40}
	for i := 0; i < 40; i++ {
		start := rng.Int63n(6)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start, End: start + 3 + rng.Int63n(8), Size: 3 + rng.Int63n(10),
		})
	}
	p.Normalize()
	res := Search(p, nil, idOrderPolicy{}, Options{MaxSteps: 5})
	if res.Status == Solved && res.Stats.Steps > 5 {
		t.Errorf("solved using %d steps despite cap", res.Stats.Steps)
	}
	if res.Status == Budget && res.Stats.Steps > 6 {
		t.Errorf("steps = %d, exceeded cap", res.Stats.Steps)
	}
}

func TestSearchEmptyProblem(t *testing.T) {
	p := &buffers.Problem{Memory: 8}
	res := Search(p, nil, idOrderPolicy{}, Options{})
	if res.Status != Solved {
		t.Fatalf("status = %v", res.Status)
	}
	if len(res.Solution.Offsets) != 0 {
		t.Errorf("offsets = %v", res.Solution.Offsets)
	}
}

func TestSearchSolutionsAreAlwaysValid(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &buffers.Problem{}
		n := 1 + rng.Intn(25)
		for i := 0; i < n; i++ {
			start := rng.Int63n(20)
			p.Buffers = append(p.Buffers, buffers.Buffer{
				Start: start,
				End:   start + 1 + rng.Int63n(12),
				Size:  1 + rng.Int63n(10),
				Align: []int64{0, 0, 0, 4}[rng.Intn(4)],
			})
		}
		p.Normalize()
		peak := buffers.Contention(p).Peak()
		p.Memory = peak + rng.Int63n(peak+1)
		res := Search(p, nil, idOrderPolicy{}, Options{MaxSteps: 50000})
		if res.Status != Solved {
			return true // failing to solve is allowed; wrong solutions are not
		}
		return res.Solution.Validate(p) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// conflictRecordingPolicy exposes framework internals for the backjump test.
type overridePolicy struct {
	idOrderPolicy
	target int
	used   *bool
}

func (p overridePolicy) BacktrackTarget(st *State, dp *DecisionPoint) (int, bool) {
	*p.used = true
	return p.target, true
}

func TestPolicyBacktrackOverrideIsConsulted(t *testing.T) {
	// An infeasible instance whose infeasibility only surfaces at depth >= 2,
	// guaranteeing a major backtrack with an ancestor to jump to: a size-4
	// buffer plus three size-3 buffers in memory 12 (13 bytes needed), where
	// pairwise propagation accepts the first placement.
	p := &buffers.Problem{Memory: 12}
	p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 5, Size: 4})
	for i := 0; i < 3; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 5, Size: 3})
	}
	p.Normalize()
	used := false
	res := Search(p, nil, overridePolicy{target: 0, used: &used}, Options{MaxSteps: 10000})
	if res.Status == Solved {
		t.Fatal("infeasible instance solved")
	}
	if res.Stats.MajorBacktracks > 0 && !used {
		t.Error("policy override never consulted despite major backtracks")
	}
}

// promoted runs one candidate promotion from an exhausted point holding
// promoted to a committed target holding rest, both handed over as how
// says: as queues, or as batches of one. It returns the target's merged
// queue and the number of batches pulled.
func promoted(t *testing.T, promoted, rest []int, how string, limit int) ([]int, int) {
	p := &buffers.Problem{Memory: 64}
	for i := 0; i < 8; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 1, Size: 1})
	}
	p.Normalize()
	src := &batchSource{t: t, probe: 7}
	s := &searcher{
		st:     &State{Model: cp.NewModel(p, nil), Prob: p, PlacedLevel: make([]int, len(p.Buffers))},
		policy: src,
		opts:   Options{MaxCandidatesPerLevel: limit},
	}
	// The target committed buffer 7, so the exhausted point's prefix has
	// it placed and the target's own prefix does not.
	target := &DecisionPoint{Placed: 7, more: -1}
	s.st.Model.Push()
	if c := s.st.Model.Place(7, 0); c != nil {
		t.Fatal(c)
	}
	exhausted := &DecisionPoint{Placed: -1, more: -1}
	s.st.Stack = []*DecisionPoint{target, exhausted}
	src.picks = map[*DecisionPoint][]int{target: rest, exhausted: promoted}
	src.placed = map[*DecisionPoint]bool{exhausted: true}
	switch how {
	case "queue":
		target.Queue, exhausted.Queue = rest, promoted
	case "batches":
		target.more, exhausted.more = 1, 1
	}
	s.promote(exhausted, 0)
	if target.Next != 0 || target.more >= 0 {
		t.Fatalf("%s: promotion must leave a materialised queue", how)
	}
	return target.Queue, src.pulls
}

// batchSource hands out each decision point's candidates one per batch,
// the cursor being one past the next one's index. It checks that every
// pull runs at the point's own placement prefix: with the probe buffer
// placed exactly where placed says.
type batchSource struct {
	idOrderPolicy
	t      *testing.T
	picks  map[*DecisionPoint][]int
	placed map[*DecisionPoint]bool
	probe  int
	pulls  int
}

func (b *batchSource) Candidates(st *State, cursor int, dst []int) ([]int, int) {
	dp := st.Stack[len(st.Stack)-1]
	if st.Model.Placed(b.probe) != b.placed[dp] {
		b.t.Errorf("pull outside the decision point's prefix: buffer %d placed = %v", b.probe, !b.placed[dp])
	}
	list := b.picks[dp]
	if cursor > len(list) {
		return dst, -1
	}
	b.pulls++
	return append(dst, list[cursor-1]), cursor + 1
}

func TestMergeQueues(t *testing.T) {
	for _, how := range []string{"queue", "batches"} {
		got, _ := promoted(t, []int{3, 1, 3}, []int{1, 2, 4}, how, 10)
		if want := []int{3, 1, 2, 4}; !slices.Equal(got, want) {
			t.Fatalf("%s: merged = %v, want %v", how, got, want)
		}
		got, pulls := promoted(t, []int{1, 2, 3}, []int{4, 5}, how, 2)
		if want := []int{1, 2}; !slices.Equal(got, want) {
			t.Errorf("%s: cap ignored: merged = %v, want %v", how, got, want)
		}
		if how == "batches" && pulls != 2 {
			t.Errorf("batches: %d batches pulled for a cap of 2, want only the 2 kept", pulls)
		}
	}
}

// A point whose batches hold no candidate is exhausted: the framework adds
// no candidate of its own. Here every batch is empty, so the root point is
// exhausted before any step, after pulling each batch once.
func TestEmptyBatchesExhaustWithoutSteps(t *testing.T) {
	p := hardInstance(1, 6)
	var cursors []int
	pol := funcPolicy{
		cands: func(_ *State, cursor int, dst []int) ([]int, int) {
			cursors = append(cursors, cursor)
			if cursor < 2 {
				return dst, cursor + 1
			}
			return dst, -1
		},
		place: idOrderPolicy{}.Placement,
		back:  idOrderPolicy{}.BacktrackTarget,
	}
	res := Search(p, nil, pol, Options{})
	if res.Status != Exhausted || res.Stats.Steps != 0 {
		t.Fatalf("%v after %d steps, want exhausted after 0", res.Status, res.Stats.Steps)
	}
	if want := []int{0, 1, 2}; !slices.Equal(cursors, want) {
		t.Fatalf("cursors %v, want %v", cursors, want)
	}
}

// Batched candidates must search exactly like the same candidates handed
// over as one batch, through minor and major backtracks and capped
// promotions: same attempts in the same order, same stats, offsets and
// budget checks. Each point's candidates depend on its placement prefix,
// so a batch pulled under another point's prefix would change the search.
func TestLazyPicksMatchEagerQueue(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := hardInstance(seed, 12)
		for _, withTail := range []bool{false, true} {
			for _, opts := range []Options{{MaxSteps: 20000}, {MaxSteps: 20000, MaxCandidatesPerLevel: 3}, {MaxSteps: 20000, DisablePromotion: true}} {
				var tried [2][]int
				var runs [2]Result
				var checks [2]int
				for i, lazy := range []bool{false, true} {
					o := opts
					o.TestHook = func() bool { checks[i]++; return false }
					runs[i] = Search(p, nil, prefixPolicy(t, lazy, withTail, &tried[i]), o)
				}
				if runs[0].Stats != runs[1].Stats || runs[0].Status != runs[1].Status || checks[0] != checks[1] || !slices.Equal(tried[0], tried[1]) {
					t.Fatalf("seed %d tail=%v %+v: eager %v %+v (%d checks), lazy %v %+v (%d checks)", seed, withTail, opts,
						runs[0].Status, runs[0].Stats, checks[0], runs[1].Status, runs[1].Stats, checks[1])
				}
				if runs[0].Status == Solved && !slices.Equal(runs[0].Solution.Offsets, runs[1].Solution.Offsets) {
					t.Fatalf("seed %d tail=%v: offsets differ", seed, withTail)
				}
			}
		}
	}
}

// prefixPolicy orders each point's unplaced buffers by a hash of its
// placement prefix and hands them out as picks, just the first three when
// withTail, followed by the other unplaced buffers in reverse ID order.
// Eager, the opening batch holds every candidate; lazy, it holds at most
// one, and later batches hand out two picks or one tail entry each.
func prefixPolicy(t *testing.T, lazy, withTail bool, tried *[]int) Policy {
	queue := func(st *State) (all []int, picks, first int) {
		var h int
		for _, dp := range st.Stack {
			if dp.Placed >= 0 {
				h += (dp.Placed + 1) * (dp.Placed + 3)
			}
		}
		for b := range st.Prob.Buffers {
			if !st.Model.Placed(b) {
				all = append(all, b)
			}
		}
		slices.SortStableFunc(all, func(a, b int) int { return (a*31+h)%97 - (b*31+h)%97 })
		picks = len(all)
		if withTail && picks > 3 {
			picks = 3
			tail := all[picks:]
			slices.Sort(tail)
			slices.Reverse(tail)
		}
		return all, picks, min(picks, h%2)
	}
	return funcPolicy{
		cands: func(st *State, cursor int, dst []int) ([]int, int) {
			all, picks, first := queue(st)
			if !lazy {
				return append(dst, all...), -1
			}
			from, to := 0, first
			if cursor > 0 {
				if top := st.Stack[len(st.Stack)-1]; top.Placed >= 0 {
					t.Errorf("pull for a committed decision point")
				}
				from = cursor - 1
				to = min(from+2, picks)
				if from >= picks {
					to = from + 1
				}
			}
			dst = append(dst, all[from:to]...)
			if to == len(all) {
				return dst, -1
			}
			return dst, to + 1
		},
		place: func(st *State, b int) (int64, bool) {
			*tried = append(*tried, b)
			return st.Model.LowestFeasible(b)
		},
		back: idOrderPolicy{}.BacktrackTarget,
	}
}

func TestStatsCounting(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 4, Size: 4},
			{Start: 1, End: 8, Size: 4},
			{Start: 4, End: 8, Size: 4},
			{Start: 4, End: 8, Size: 4},
		},
		Memory: 12,
	}
	p.Normalize()
	res := Search(p, nil, idOrderPolicy{}, Options{})
	if res.Status != Solved {
		t.Fatalf("status %v", res.Status)
	}
	if res.Stats.Steps < res.Stats.Placements {
		t.Errorf("steps %d < placements %d", res.Stats.Steps, res.Stats.Placements)
	}
	if res.Stats.MaxDepth == 0 {
		t.Error("MaxDepth not tracked")
	}
	if res.Stats.SolverStats.Propagations == 0 {
		t.Error("solver stats not captured")
	}
}

var _ Policy = idOrderPolicy{} // interface check

// Ensure conflict structs surface through DecisionPoint for policies.
func TestConflictSurfacedToDecisionPoint(t *testing.T) {
	p := &buffers.Problem{Memory: 8}
	for i := 0; i < 3; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 5, Size: 3})
	}
	p.Normalize()
	var sawConflict bool
	policy := funcPolicy{
		cands: idOrderPolicy{}.Candidates,
		place: func(st *State, buf int) (int64, bool) { return st.Model.LowestFeasible(buf) },
		back: func(st *State, dp *DecisionPoint) (int, bool) {
			if dp.LastConflict != nil {
				sawConflict = true
			}
			return 0, false
		},
	}
	Search(p, nil, policy, Options{MaxSteps: 10000})
	_ = sawConflict // conflicts may legitimately be absent if propagation kills the root
}

type funcPolicy struct {
	cands func(*State, int, []int) ([]int, int)
	place func(*State, int) (int64, bool)
	back  func(*State, *DecisionPoint) (int, bool)
}

func (f funcPolicy) Candidates(st *State, cursor int, dst []int) ([]int, int) {
	return f.cands(st, cursor, dst)
}
func (f funcPolicy) Placement(st *State, b int) (int64, bool) { return f.place(st, b) }
func (f funcPolicy) BacktrackTarget(st *State, dp *DecisionPoint) (int, bool) {
	return f.back(st, dp)
}

var _ cp.Order // keep cp imported for the interface reference above

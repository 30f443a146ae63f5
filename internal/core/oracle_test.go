package core

import (
	"fmt"
	"sort"
	"testing"

	"telamalloc/internal/buffers"
	"telamalloc/internal/phases"
	"telamalloc/internal/telamon"
	"telamalloc/internal/workload"
)

// This file keeps the eager candidate generation the incremental policies
// replaced, as a test oracle: at every decision point it rescans every
// phase for its picks and re-sorts every unplaced buffer into the fallback,
// handing the framework one fully built queue. The production policies must
// drive the search through exactly the same tree.

// oraclePolicy is telaPolicy with eager candidates: the opening call hands
// out the complete eager queue as the only batch.
type oraclePolicy struct{ tp *telaPolicy }

func (op oraclePolicy) Placement(st *telamon.State, buf int) (int64, bool) {
	return op.tp.Placement(st, buf)
}

func (op oraclePolicy) BacktrackTarget(st *telamon.State, dp *telamon.DecisionPoint) (int, bool) {
	return op.tp.BacktrackTarget(st, dp)
}

func (op oraclePolicy) Candidates(st *telamon.State, _ int, _ []int) ([]int, int) {
	tp := op.tp
	if tp.groups == nil {
		out := oracleTopPicks(st, nil)
		if tp.cfg.NoFallbackCandidates {
			return out, -1
		}
		seen := make(map[int]bool, len(out))
		for _, id := range out {
			seen[id] = true
		}
		return oracleAppendRemaining(st, out, seen), -1
	}
	cur := tp.currentPhase(st)
	out := make([]int, 0, 3*len(tp.groups.Phases))
	seen := make(map[int]bool, 8)
	appendPicks := func(ph *phases.Phase) {
		for _, c := range oracleTopPicks(st, ph.Buffers) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	if cur >= 0 {
		appendPicks(&tp.groups.Phases[cur])
	}
	for i := range tp.groups.Phases {
		if i != cur {
			appendPicks(&tp.groups.Phases[i])
		}
	}
	if !tp.cfg.NoFallbackCandidates {
		out = oracleAppendRemaining(st, out, seen)
	}
	return out, -1
}

// oracleAppendRemaining adds every unplaced buffer not already in out,
// ordered by decreasing area.
func oracleAppendRemaining(st *telamon.State, out []int, seen map[int]bool) []int {
	var rest []int
	for id := range st.Prob.Buffers {
		if !st.Model.Placed(id) && !seen[id] {
			rest = append(rest, id)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		ba, bb := st.Prob.Buffers[rest[a]], st.Prob.Buffers[rest[b]]
		if aa, ab := ba.Area(), bb.Area(); aa != ab {
			return aa > ab
		}
		return rest[a] < rest[b]
	})
	return append(out, rest...)
}

// oracleTopPicks returns up to three distinct unplaced buffers from the
// given ID set (nil = all buffers): the longest-lived, the largest, and the
// one with the largest area, in that order.
func oracleTopPicks(st *telamon.State, ids []int) []int {
	bestLife, bestSize, bestArea := -1, -1, -1
	var lifeV, sizeV int64 = -1, -1
	areaV := -1.0
	consider := func(id int) {
		if st.Model.Placed(id) {
			return
		}
		b := st.Prob.Buffers[id]
		if l := b.Lifetime(); l > lifeV {
			lifeV, bestLife = l, id
		}
		if b.Size > sizeV {
			sizeV, bestSize = b.Size, id
		}
		if a := b.Area(); a > areaV {
			areaV, bestArea = a, id
		}
	}
	if ids == nil {
		for id := range st.Prob.Buffers {
			consider(id)
		}
	} else {
		for _, id := range ids {
			consider(id)
		}
	}
	var out []int
	for _, id := range [3]int{bestLife, bestSize, bestArea} {
		if id < 0 {
			continue
		}
		dup := false
		for _, o := range out {
			if o == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// oracleStrategy is strategyPolicy with eager candidates: every unplaced
// buffer, re-sorted by the strategy's criterion at each decision point.
type oracleStrategy struct {
	*strategyPolicy
	strat Strategy
}

func (os oracleStrategy) Candidates(st *telamon.State, _ int, _ []int) ([]int, int) {
	var ids []int
	for i := range st.Prob.Buffers {
		if !st.Model.Placed(i) {
			ids = append(ids, i)
		}
	}
	keyDesc := func(a, b int, key func(buffers.Buffer) int64) bool {
		ka, kb := key(st.Prob.Buffers[a]), key(st.Prob.Buffers[b])
		if ka != kb {
			return ka > kb
		}
		return a < b
	}
	switch os.strat {
	case StrategyMaxSize:
		sort.Slice(ids, func(a, b int) bool {
			return keyDesc(ids[a], ids[b], func(x buffers.Buffer) int64 { return x.Size })
		})
	case StrategyMaxArea:
		sort.Slice(ids, func(a, b int) bool {
			ka, kb := st.Prob.Buffers[ids[a]].Area(), st.Prob.Buffers[ids[b]].Area()
			if ka != kb {
				return ka > kb
			}
			return ids[a] < ids[b]
		})
	case StrategyMaxLifetime:
		sort.Slice(ids, func(a, b int) bool {
			return keyDesc(ids[a], ids[b], buffers.Buffer.Lifetime)
		})
	case StrategyLowestPosition:
		pos := make(map[int]int64, len(ids))
		for _, id := range ids {
			if p, ok := st.Model.LowestFeasible(id); ok {
				pos[id] = p
			} else {
				pos[id] = 1 << 62
			}
		}
		sort.Slice(ids, func(a, b int) bool {
			if pos[ids[a]] != pos[ids[b]] {
				return pos[ids[a]] < pos[ids[b]]
			}
			return ids[a] < ids[b]
		})
	}
	return ids, -1
}

// searchRun is everything a search exposes: status, stats (with the
// solver's), offsets and the number of budget checks.
type searchRun struct {
	res    telamon.Result
	checks int
}

func (r searchRun) String() string {
	return fmt.Sprintf("%v %+v, %d budget checks", r.res.Status, r.res.Stats, r.checks)
}

// searchCounted runs policy on p with the framework options a TelaMalloc
// subproblem search uses, counting the budget checks through the test hook.
func searchCounted(p *buffers.Problem, policy telamon.Policy, opts telamon.Options) searchRun {
	var r searchRun
	opts.TestHook = func() bool { r.checks++; return false }
	r.res = telamon.Search(p, nil, policy, opts)
	return r
}

func tmOptions(cfg Config) telamon.Options {
	return telamon.Options{
		MaxSteps:              cfg.MaxSteps,
		StuckThreshold:        cfg.StuckThreshold,
		DisableConflictDriven: cfg.DisableConflictDriven,
		DisablePromotion:      cfg.DisablePromotion,
	}
}

// strategyOptions mirrors SolveWithStrategy's options.
func strategyOptions(maxSteps int64) telamon.Options {
	return telamon.Options{MaxSteps: maxSteps, DisableConflictDriven: true, DisablePromotion: true, StuckThreshold: -1}
}

// sameRun fails the test unless the two runs are indistinguishable.
func sameRun(t testing.TB, what string, want, got searchRun) {
	t.Helper()
	if want.res.Status != got.res.Status || want.res.Stats != got.res.Stats || want.checks != got.checks {
		t.Fatalf("%s:\noracle      %v\nincremental %v", what, want, got)
	}
	if want.res.Status != telamon.Solved {
		return
	}
	for b, off := range want.res.Solution.Offsets {
		if got.res.Solution.Offsets[b] != off {
			t.Fatalf("%s: buffer %d at %d, oracle placed it at %d", what, b, got.res.Solution.Offsets[b], off)
		}
	}
}

// checkEquivalence runs the incremental policies and their eager oracles on
// p under cfg (and every single strategy) and requires identical searches.
// It calls telamon.Search on the whole problem, so a one-buffer problem is
// searched here too: Solve's direct answer for one-buffer groups never
// stands in for either side.
func checkEquivalence(t testing.TB, name string, p *buffers.Problem, cfg Config) {
	t.Helper()
	opts := tmOptions(cfg)
	sameRun(t, name,
		searchCounted(p, oraclePolicy{newPolicy(p, cfg)}, opts),
		searchCounted(p, newPolicy(p, cfg), opts))
}

func checkStrategyEquivalence(t testing.TB, name string, p *buffers.Problem, maxSteps int64) {
	t.Helper()
	for _, s := range Strategies {
		opts := strategyOptions(maxSteps)
		sameRun(t, name+"/"+s.String(),
			searchCounted(p, oracleStrategy{newStrategyPolicy(p, s), s}, opts),
			searchCounted(p, newStrategyPolicy(p, s), opts))
	}
}

// atPeakPct returns p with memory at pct percent of its contention peak.
func atPeakPct(p *buffers.Problem, pct int64) *buffers.Problem {
	q := p.Clone()
	q.Memory = buffers.Contention(q).Peak() * pct / 100
	return q
}

// oracleInputs lists the equivalence test's problems: the two large
// proxies, the adversarial families, and every model proxy at 95–110% of
// its lower bound. short keeps one seed and two ratios of the proxies.
func oracleInputs(short bool) (names []string, probs []*buffers.Problem) {
	add := func(name string, p *buffers.Problem) {
		names = append(names, name)
		probs = append(probs, p)
	}
	add("DeepChain-2K@102", atPeakPct(workload.GenDeepChain(1), 102))
	add("Transformer-24L@100", atPeakPct(workload.GenTransformer(1), 100))
	for s := int64(1); s <= 3; s++ {
		add(fmt.Sprintf("AlignmentHostile/s%d", s), workload.AlignmentHostile(40, s))
		add(fmt.Sprintf("NearCapacityPack/s%d", s), workload.NearCapacityPack(24, s))
		add(fmt.Sprintf("SkinnyFatMix/s%d", s), workload.SkinnyFatMix(24, s))
		add(fmt.Sprintf("AlignTrap/s%d", s), workload.AlignTrap(s))
		add(fmt.Sprintf("TinyModelGraph/s%d", s), workload.TinyModelGraph(s))
	}
	ratios := []int64{95, 100, 105, 110}
	if short {
		ratios = []int64{100}
	}
	for _, m := range workload.Models {
		q := m.Generate(1)
		for _, r := range ratios {
			add(fmt.Sprintf("%s@%d", m.Name, r), atPeakPct(q, r))
		}
	}
	return names, probs
}

// TestIncrementalCandidatesMatchOracle: presorted orders, cursors and the
// batched phase walk and fallback must explore exactly the tree the eager candidate
// queues explored — same steps, backtracks, placements, solver work,
// offsets and budget checks (so deadline polls and fault-injection points
// fire at the same moments) — in every candidate configuration.
func TestIncrementalCandidatesMatchOracle(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"strict", Config{NoFallbackCandidates: true}},
		{"no-phases", Config{DisablePhases: true}},
	}
	names, probs := oracleInputs(testing.Short())
	for i, p := range probs {
		t.Run(names[i], func(t *testing.T) {
			for _, c := range configs {
				cfg := c.cfg
				cfg.MaxSteps = 1500
				checkEquivalence(t, c.name, p, cfg)
			}
			// The ablation strategies sort every unplaced buffer per
			// step in the oracle: keep them to the proxy-sized inputs.
			if len(p.Buffers) <= 500 {
				checkStrategyEquivalence(t, "strategy", p, 800)
			}
		})
	}
}

// TestCandidatesAllocationFree: opening a decision point mid-search
// allocates nothing, however many phases the problem has: the picks go to
// the point's own room for three. The eager queue allocated and sorted O(n)
// per decision point, walking every phase cost O(phases), and a fresh
// slice for the picks cost one allocation per point.
func TestCandidatesAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *buffers.Problem
		one  bool // a single phase, else hundreds
	}{
		{"DeepChain-2K", atPeakPct(workload.GenDeepChain(1), 102), false},
		{"FullOverlap-300", workload.FullOverlap(300, 1), true},
	} {
		tp := newPolicy(tc.p, Config{})
		if phases := len(tp.orders); (phases == 1) != tc.one {
			t.Fatalf("%s has %d phases", tc.name, phases)
		}
		var allocs float64
		probe := &probePolicy{telaPolicy: tp, at: len(tc.p.Buffers) / 2, measure: func(st *telamon.State) {
			allocs = testing.AllocsPerRun(50, func() { openLikeSearch(tp, st) })
		}}
		if res := telamon.Search(tc.p, nil, probe, telamon.Options{MaxSteps: 5000}); res.Stats.Placements < int64(probe.at) {
			t.Fatalf("%s: search stopped before the probe: %+v", tc.name, res.Stats)
		}
		if allocs != 0 {
			t.Errorf("%s: opening a decision point allocates %.1f objects mid-search, want 0", tc.name, allocs)
		}
	}
}

// openLikeSearch gets a decision point's candidates the way the search
// opens one: the opening batch into the point's room for three, then later
// batches until there is a candidate.
func openLikeSearch(tp *telaPolicy, st *telamon.State) {
	var first [3]int
	picks, more := tp.Candidates(st, 0, first[:0])
	for len(picks) == 0 && more >= 0 {
		picks, more = tp.Candidates(st, more, picks)
	}
}

// probePolicy runs measure once, when its at-th decision point opens.
type probePolicy struct {
	*telaPolicy
	at, calls int
	measure   func(st *telamon.State)
}

func (pp *probePolicy) Candidates(st *telamon.State, cursor int, dst []int) ([]int, int) {
	if cursor == 0 {
		if pp.calls++; pp.calls == pp.at {
			pp.measure(st)
		}
	}
	return pp.telaPolicy.Candidates(st, cursor, dst)
}

// FuzzSearchEquivalence decodes a small problem and a configuration from
// bytes and requires the incremental policies to search exactly like their
// eager oracles, and Solve, with its direct answer for one-buffer groups,
// to answer exactly like the search-only solve.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add([]byte{0, 100, 0, 3, 2, 4, 0, 1, 5, 3, 1, 2, 2, 6, 0, 0, 7, 2, 1})
	f.Add([]byte{1, 95, 3, 0, 8, 8, 0, 0, 8, 8, 0, 4, 4, 3, 2, 2, 2, 5, 1, 1, 9, 1})
	f.Add([]byte{30, 110, 7, 1, 1, 9, 3, 2, 4, 4, 1, 5, 2, 2, 0, 6, 6, 1, 3, 1, 1, 2, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, cfg, ok := decodeEquivalenceInput(data)
		if !ok {
			return
		}
		checkEquivalence(t, "fuzz", p, cfg)
		checkStrategyEquivalence(t, "fuzz", p, cfg.MaxSteps)
		checkAgainstSearch(t, "fuzz", p, cfg)
	})
}

// decodeEquivalenceInput reads a flags byte (candidate and backtracking
// configuration), a memory ratio byte (percent of the contention peak,
// 80–143), then up to 16 buffers of four bytes each: start, length, size,
// alignment exponent.
func decodeEquivalenceInput(data []byte) (*buffers.Problem, Config, bool) {
	if len(data) < 6 {
		return nil, Config{}, false
	}
	flags, ratio := data[0], 80+int64(data[1])%64
	cfg := Config{
		MaxSteps:              2000,
		NoFallbackCandidates:  flags&1 != 0,
		DisablePhases:         flags&2 != 0,
		DisablePromotion:      flags&4 != 0,
		DisableConflictDriven: flags&8 != 0,
		StuckThreshold:        int(flags>>5) * 4, // 0 = default 100
	}
	p := &buffers.Problem{}
	for rest := data[2:]; len(rest) >= 4 && len(p.Buffers) < 16; rest = rest[4:] {
		start := int64(rest[0] % 32)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start,
			End:   start + 1 + int64(rest[1]%16),
			Size:  1 + int64(rest[2]%24),
			Align: 1 << (rest[3] % 4),
		})
	}
	if len(p.Buffers) == 0 {
		return nil, Config{}, false
	}
	p.Memory = buffers.Contention(p).Peak() * ratio / 100
	p.Normalize()
	if p.Validate() != nil {
		return nil, Config{}, false
	}
	return p, cfg, true
}

// TestCandidateWorkGate bounds the candidate work per decision point on
// DeepChain-2K (869 phases): the picks handed out and the phases the
// phase walk looks at. Building every phase's picks eagerly hands out ~624
// picks per decision point, and a walk that re-crosses fully placed phases
// looks at ~200 phases; the search itself uses about one pick.
func TestCandidateWorkGate(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		p := atPeakPct(workload.GenDeepChain(seed), 102)
		tp := newPolicy(p, Config{})
		res := telamon.Search(p, nil, tp, tmOptions(Config{MaxSteps: 20000}))
		picks := float64(tp.picked) / float64(tp.opened)
		visits := float64(tp.visited) / float64(tp.opened)
		t.Logf("seed %d: %v, %d phases, %d decision points: %.2f picks and %.2f phase visits each",
			seed, res.Status, len(tp.orders), tp.opened, picks, visits)
		if res.Status != telamon.Solved {
			t.Fatalf("seed %d: %v", seed, res.Status)
		}
		if picks > 2 {
			t.Errorf("seed %d: %.2f picks per decision point, want at most 2", seed, picks)
		}
		if visits > 2 {
			t.Errorf("seed %d: %.2f phase visits per decision point, want at most 2", seed, visits)
		}
	}
}

// TestCursorRewindGate bounds the cursor rewinds of the budget-exhausting
// Image Model 1/s3 search at 100% of its peak. Only a major backtrack
// unplaces a buffer a decision point saw placed, so the cursors rewind at
// most once per major backtrack. Rewinding whenever Pop reverted any
// placement, the failed one of every minor backtrack included, cost 5,891
// rewinds for 111 major backtracks here, and 6.74 phase visits per decision
// point to re-cross the dead phases after each; the gate allows 3.
func TestCursorRewindGate(t *testing.T) {
	p := atPeakPct(workload.GenImageModel1(3), 100)
	tp := newPolicy(p, Config{})
	res := telamon.Search(p, nil, tp, tmOptions(Config{MaxSteps: 20000}))
	visits := float64(tp.visited) / float64(tp.opened)
	t.Logf("%v: %d steps, %d major backtracks, %d rewinds, %d decision points, %.2f phase visits each",
		res.Status, res.Stats.Steps, res.Stats.MajorBacktracks, tp.rewinds, tp.opened, visits)
	if res.Status != telamon.Budget {
		t.Fatalf("%v, want a budget-exhausting search", res.Status)
	}
	if int64(tp.rewinds) > res.Stats.MajorBacktracks+1 {
		t.Errorf("%d rewinds, want at most %d major backtracks + 1", tp.rewinds, res.Stats.MajorBacktracks)
	}
	if visits > 3 {
		t.Errorf("%.2f phase visits per decision point, want at most 3", visits)
	}
}

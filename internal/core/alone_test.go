package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/obs"
	"telamalloc/internal/telamon"
	"telamalloc/internal/workload"
)

// This file pins the direct answer for one-buffer groups (placeAlone) to
// the search it replaces. A no-op fault-injection hook forces every group
// through solveComponent, so Solve with such a hook is the oracle: it is
// exactly the search-only solve.

// searchOnly returns cfg with a hook that never fires, which keeps every
// group, one-buffer groups included, on the search path.
func searchOnly(cfg Config) Config {
	cfg.Hook = func(string) bool { return false }
	return cfg
}

// groupsSansElapsed drops the wall-clock field from a report.
func groupsSansElapsed(gs []GroupReport) []GroupReport {
	out := make([]GroupReport, len(gs))
	for i, g := range gs {
		g.Elapsed = 0
		out[i] = g
	}
	return out
}

// sameSolve fails the test unless got and want are indistinguishable apart
// from per-group wall-clock time. A failed solve under parallelism is
// compared only on what Config.Parallelism promises: its per-group reports
// and stats depend on when sibling groups see the failure.
func sameSolve(t *testing.T, what string, want, got Result, sequential bool) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) || got.Err != nil && got.Err.Error() != want.Err.Error() {
		t.Fatalf("%s: err %v, search reported %v", what, got.Err, want.Err)
	}
	if !sequential && want.Status != telamon.Solved {
		if got.Status != want.Status || got.Solution != nil {
			t.Fatalf("%s: %v (solution %v), search reported %v", what, got.Status, got.Solution != nil, want.Status)
		}
		return
	}
	if got.Status != want.Status || got.Stats != want.Stats || got.Subproblems != want.Subproblems {
		t.Fatalf("%s:\nsearch %v %+v (%d groups)\ndirect %v %+v (%d groups)",
			what, want.Status, want.Stats, want.Subproblems, got.Status, got.Stats, got.Subproblems)
	}
	if !reflect.DeepEqual(groupsSansElapsed(got.Groups), groupsSansElapsed(want.Groups)) {
		t.Fatalf("%s: group reports differ:\nsearch %+v\ndirect %+v", what, want.Groups, got.Groups)
	}
	if (got.Solution == nil) != (want.Solution == nil) ||
		got.Solution != nil && !reflect.DeepEqual(got.Solution.Offsets, want.Solution.Offsets) {
		t.Fatalf("%s: offsets differ", what)
	}
}

// checkAgainstSearch solves p under cfg both ways, each into its own
// registry, and requires identical results and live step counters.
func checkAgainstSearch(t *testing.T, what string, p *buffers.Problem, cfg Config) {
	t.Helper()
	rs, rd := obs.NewRegistry(), obs.NewRegistry()
	ref := cfg
	ref.Obs = rs
	want := Solve(p, searchOnly(ref))
	cfg.Obs = rd
	got := Solve(p, cfg)
	sequential := effectiveParallelism(cfg, got.Subproblems) <= 1
	sameSolve(t, what, want, got, sequential)
	if !sequential && want.Status != telamon.Solved {
		return
	}
	if ws, gs := solverMetricsFor(rs).steps.Value(), solverMetricsFor(rd).steps.Value(); ws != gs {
		t.Fatalf("%s: steps counter %d, search fed it %d", what, gs, ws)
	}
}

// TestOneBufferAnswerMatchesSearch: on one-buffer problems, placeAlone is
// what solveComponent reports, and Solve's answer is the search-only
// solve's, in every configuration that keeps the shortcut. The buffers
// cover a root upper bound of 0 (Size == Memory, or alignment leaves no
// room above 0), where the placement propagates nothing.
func TestOneBufferAnswerMatchesSearch(t *testing.T) {
	bufs := []buffers.Buffer{
		{Start: 0, End: 5, Size: 10},
		{Start: 0, End: 5, Size: 100},           // Size == Memory
		{Start: 2, End: 9, Size: 7, Align: 64},  // aligned, room above 0
		{Start: 2, End: 9, Size: 60, Align: 64}, // aligned, no room above 0
		{Start: 3, End: 4, Size: 1, Align: 100}, // Align == Memory
		{Start: -7, End: 40, Size: 99, Align: 1},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"skyline", Config{Placement: SkylineTop}},
		{"no-phases", Config{DisablePhases: true}},
		{"strict", Config{NoFallbackCandidates: true}},
		{"no-split", Config{DisableSplit: true}},
		{"budgeted", Config{MaxSteps: 1}},
		{"chooser", Config{Chooser: panickyChooser{}}},
		{"deadline-ahead", Config{Deadline: time.Now().Add(time.Hour)}},
	}
	for _, b := range bufs {
		p := &buffers.Problem{Memory: 100, Buffers: []buffers.Buffer{b}}
		for _, c := range configs {
			what := fmt.Sprintf("%v/%s", b, c.name)
			search := solveComponent(p, c.cfg, c.cfg.MaxSteps, nil, func(int64) {}, 0)
			direct := placeAlone(p.Buffers[0], p.Memory)
			if direct.Status != search.Status || direct.Stats != search.Stats ||
				!reflect.DeepEqual(direct.Solution.Offsets, search.Solution.Offsets) {
				t.Fatalf("%s: placeAlone %v %+v %v, search %v %+v %v", what,
					direct.Status, direct.Stats, direct.Solution.Offsets,
					search.Status, search.Stats, search.Solution.Offsets)
			}
			checkAgainstSearch(t, what, p, c.cfg)
		}
	}
}

// TestSolveMatchesSearchOnly: whole solves with many one-buffer groups
// (NonOverlapping), a few multi-buffer ones (MultiComponent), and the model
// proxies, whose splits mix both, answer exactly as the search-only solve
// at parallelism 1 and 4.
func TestSolveMatchesSearchOnly(t *testing.T) {
	type input struct {
		name string
		p    *buffers.Problem
	}
	inputs := []input{
		{"NonOverlapping-1000", workload.NonOverlapping(1000, 1)},
		{"MultiComponent-6x16", workload.MultiComponent(6, 16, 110, 3)},
		{"MultiComponent-5x10", workload.MultiComponent(5, 10, 115, 6)},
	}
	for _, m := range workload.Models {
		inputs = append(inputs, input{m.Name, atPeakPct(m.Generate(1), 100)})
	}
	singletons := 0
	for _, in := range inputs {
		for _, par := range []int{1, 4} {
			for _, maxSteps := range []int64{0, 50000} {
				what := fmt.Sprintf("%s/par%d/steps%d", in.name, par, maxSteps)
				checkAgainstSearch(t, what, in.p, Config{Parallelism: par, MaxSteps: maxSteps})
			}
		}
		for _, g := range Solve(in.p, Config{}).Groups {
			if g.Buffers == 1 {
				singletons++
			}
		}
	}
	if singletons < 1000 {
		t.Fatalf("only %d one-buffer groups across the inputs", singletons)
	}
}

// TestTrivialComponentAllocGate: a solve of one-buffer components costs a
// few allocations per buffer. Searching each one (Subset, CP model, phase
// grouping, policy) cost 40 per buffer.
func TestTrivialComponentAllocGate(t *testing.T) {
	p := workload.NonOverlapping(1000, 1)
	cfg := Config{Parallelism: 1}
	if res := Solve(p, cfg); res.Status != telamon.Solved || res.Subproblems != len(p.Buffers) {
		t.Fatalf("fixture: %v with %d groups for %d buffers", res.Status, res.Subproblems, len(p.Buffers))
	}
	perBuffer := testing.AllocsPerRun(5, func() { Solve(p, cfg) }) / float64(len(p.Buffers))
	t.Logf("%.2f allocations per buffer", perBuffer)
	if perBuffer > 4 {
		t.Errorf("%.2f allocations per buffer, want at most 4", perBuffer)
	}
}

// TestInjectedFaultsOnOneBufferGroups: a fault-injection hook keeps every
// one-buffer group on the search path, so starvation and panics at one
// group ("group7") or at every group ("") surface with the status, error
// attribution, hook call counts and retries the search gives them: two
// budget checks per one-buffer search, and a starved group retried with
// the steps its solved siblings left.
func TestInjectedFaultsOnOneBufferGroups(t *testing.T) {
	p := workload.NonOverlapping(50, 1)
	cases := []struct {
		name       string
		fault      faultinject.Fault
		status     telamon.Status
		attributed string // the group the error names, "" for none
		calls      int    // hook calls at parallelism 1
		at         int    // the group that decides the result
		retried    bool
	}{
		{"starve-group7-first", faultinject.Fault{Point: "group7", After: 1, Kind: faultinject.Starve}, telamon.Budget, "", 100, 7, true},
		{"starve-group7-second", faultinject.Fault{Point: "group7", After: 2, Kind: faultinject.Starve}, telamon.Budget, "", 101, 7, true},
		{"panic-group7-first", faultinject.Fault{Point: "group7", After: 1, Kind: faultinject.Panic}, telamon.Internal, "group 7", 15, 7, false},
		{"panic-group7-second", faultinject.Fault{Point: "group7", After: 2, Kind: faultinject.Panic}, telamon.Internal, "group 7", 16, 7, false},
		{"starve-all-first", faultinject.Fault{After: 1, Kind: faultinject.Starve}, telamon.Budget, "", 50, 0, false},
		{"starve-all-fifth", faultinject.Fault{After: 5, Kind: faultinject.Starve}, telamon.Budget, "", 53, 2, true},
		{"panic-all-fifth", faultinject.Fault{After: 5, Kind: faultinject.Panic}, telamon.Internal, "group 2", 5, 2, false},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			what := fmt.Sprintf("%s/par%d", tc.name, par)
			in := faultinject.New(tc.fault)
			var calls atomic.Int64
			hook := func(point string) bool { calls.Add(1); return in.Hook(point) }
			res := Solve(p, Config{Parallelism: par, MaxSteps: 1000, Hook: hook})
			if res.Status != tc.status || res.Solution != nil {
				t.Fatalf("%s: status %v (solution %v), want %v", what, res.Status, res.Solution != nil, tc.status)
			}
			if tc.attributed == "" && res.Err != nil {
				t.Fatalf("%s: err %v, want none", what, res.Err)
			}
			if tc.attributed != "" && (!errors.Is(res.Err, ErrPanic) || !strings.Contains(res.Err.Error(), "test hook")) {
				t.Fatalf("%s: err %v, want a test-hook panic", what, res.Err)
			}
			if tc.fault.Point == "" && par > 1 {
				continue // which group meets a global call count depends on the schedule
			}
			if tc.attributed != "" && !strings.Contains(res.Err.Error(), tc.attributed) {
				t.Fatalf("%s: err %v, want it attributed to %s", what, res.Err, tc.attributed)
			}
			if g := res.Groups[tc.at]; g.Status != tc.status || g.Retried != tc.retried || g.Steps != 0 {
				t.Fatalf("%s: group %d report %+v, want %v with 0 steps, retried %v", what, tc.at, g, tc.status, tc.retried)
			}
			if par > 1 {
				continue
			}
			if got := int(calls.Load()); got != tc.calls {
				t.Fatalf("%s: %d hook calls, want %d", what, got, tc.calls)
			}
		}
	}
}

// pollCtx is a context whose Err reports cancellation from its n-th call
// on: a cancel landing at a chosen poll.
type pollCtx struct {
	context.Context
	polls, from int64
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.from {
		return context.Canceled
	}
	return nil
}

// TestCancelAndDeadlineOnOneBufferGroups: a passed deadline and a context
// cancelled at a given poll stop one-buffer groups exactly as their
// searches do. The search polls the context and then the deadline at its
// first budget check; the shortcut takes that poll instead, and a search it
// falls back to polls again, which hears the same answer because a done
// context stays done.
func TestCancelAndDeadlineOnOneBufferGroups(t *testing.T) {
	p := workload.NonOverlapping(50, 1)
	type outcome struct {
		status telamon.Status
		steps  int64
		at     int // first group not solved, -1 for none
	}
	run := func(cfg Config, from int64) (Result, outcome) {
		cfg.Parallelism = 1
		cfg.MaxSteps = 1000
		cfg.Ctx = &pollCtx{Context: context.Background(), from: from}
		res := Solve(p, cfg)
		o := outcome{status: res.Status, steps: res.Stats.Steps, at: -1}
		for i, g := range res.Groups {
			if g.Status != telamon.Solved {
				o.at = i
				break
			}
		}
		return res, o
	}
	const never = math.MaxInt64
	cases := []struct {
		name string
		cfg  Config
		from int64 // first poll that reports cancellation
		want outcome
	}{
		{"deadline-passed", Config{Deadline: time.Now().Add(-time.Second)}, never,
			outcome{telamon.Budget, 0, 0}},
		// Group 7 starts on poll 15 and polls again on poll 16.
		{"cancel-at-start", Config{}, 15, outcome{telamon.Cancelled, 7, 7}},
		{"cancel-at-poll", Config{}, 16, outcome{telamon.Cancelled, 7, 7}},
	}
	for _, tc := range cases {
		res, got := run(tc.cfg, tc.from)
		if got != tc.want {
			t.Fatalf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
		if res.Err != nil || res.Solution != nil {
			t.Fatalf("%s: err %v, solution %v", tc.name, res.Err, res.Solution != nil)
		}
		for i, g := range res.Groups {
			if g.Retried {
				t.Fatalf("%s: group %d retried", tc.name, i)
			}
		}
		// The search-only solve agrees on everything but wall-clock time.
		_, ref := run(searchOnly(tc.cfg), tc.from)
		if ref != got {
			t.Fatalf("%s: %+v, the search-only solve gave %+v", tc.name, got, ref)
		}
	}
	// Under parallelism too, a passed deadline stops every group before
	// its first step.
	res := Solve(p, Config{Parallelism: 4, Deadline: time.Now().Add(-time.Second)})
	if res.Status != telamon.Budget || res.Stats.Steps != 0 {
		t.Fatalf("passed deadline at parallelism 4: %v after %d steps", res.Status, res.Stats.Steps)
	}
	for i, g := range res.Groups {
		if g.Status != telamon.Budget {
			t.Fatalf("passed deadline at parallelism 4: group %d %v", i, g.Status)
		}
	}
}

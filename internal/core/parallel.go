package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/telamon"
)

// groupPoint is the stable fault-injection point label of a subproblem
// group: retries reuse the first attempt's label, so an injector's per-point
// counters see a deterministic call sequence at every parallelism level.
func groupPoint(i int) string { return fmt.Sprintf("group%d", i) }

// retryComponent re-runs a budget-starved group inside its own containment
// boundary: retries execute on the merge goroutine, outside runGroup's
// recover, and must not crash the process either.
func retryComponent(sub *buffers.Problem, cfg Config, budget int64, sample func(int64), i int) (res telamon.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res = telamon.Result{Status: telamon.Internal}
			err = internalError(fmt.Sprintf("subproblem group %d (retry)", i), rec)
		}
	}()
	return solveComponent(sub, cfg, budget, func() bool { return done(cfg.Ctx) }, sample, i), nil
}

// done reports whether the call's context has ended (false without one).
func done(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// placeAlone is the result the search reports for a one-buffer group that
// passes its budget checks. Offset 0 is aligned and, since Validate
// guarantees Size <= Memory, feasible, so the first attempt places the
// buffer there: one step, one placement, depth 1. The placement's only
// solver work is lowering the buffer's upper bound to 0, which counts as
// one propagation unless the bound is already 0 at the root.
func placeAlone(b buffers.Buffer, memory int64) telamon.Result {
	top := memory - b.Size
	if b.Align > 1 {
		top -= top % b.Align
	}
	res := telamon.Result{
		Status:   telamon.Solved,
		Solution: &buffers.Solution{Offsets: []int64{0}},
		Stats:    telamon.Stats{Steps: 1, Placements: 1, MaxDepth: 1},
	}
	if top > 0 {
		res.Stats.SolverStats.Propagations = 1
	}
	return res
}

// GroupReport describes the outcome of one independent subproblem (§5.3
// split component), in group (time) order.
type GroupReport struct {
	// Buffers is the number of buffers in the group.
	Buffers int
	// Status is the group's final framework status. Cancelled means a
	// sibling group's definitive failure (or the caller's context) stopped
	// this search before it reached its own verdict.
	Status telamon.Status
	// Steps is the group's final step count. When the group was retried,
	// this is the retry's count: the retry replaces the first attempt.
	Steps int64
	// Elapsed is the wall-clock time spent searching the group, summed
	// over the first attempt and any retry.
	Elapsed time.Duration
	// Retried reports whether the group re-ran with leftover budget after
	// exhausting its fair share of the step pot.
	Retried bool
}

// groupRun carries one group's solve state across the two scheduling
// phases.
type groupRun struct {
	ids     []int            // the group's buffer IDs, also its sub's back-map
	sub     *buffers.Problem // nil when the group was answered without a search
	share   int64
	res     telamon.Result
	err     error // attributed panic when res.Status is telamon.Internal
	elapsed time.Duration
	retried bool
}

// effectiveParallelism resolves cfg.Parallelism against the group count and
// the config's concurrency constraints.
func effectiveParallelism(cfg Config, groups int) int {
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// The learned chooser is stateful across a solve and tracks one
	// coherent decision path; interleaving groups would corrupt its
	// observations, so it forces sequential execution.
	if cfg.Chooser != nil {
		par = 1
	}
	if par > groups {
		par = groups
	}
	return par
}

// splitBudget divides the global step pot fairly across n groups: every
// group gets pot/n, with the first pot%n groups taking one extra. A
// non-positive pot (unlimited) yields unlimited shares. A pot smaller than
// n still hands every group at least one step, because a zero share would
// read as "unlimited" downstream.
func splitBudget(pot int64, n int) []int64 {
	shares := make([]int64, n)
	if pot <= 0 {
		return shares
	}
	base, extra := pot/int64(n), pot%int64(n)
	for i := range shares {
		shares[i] = base
		if int64(i) < extra {
			shares[i]++
		}
		if shares[i] == 0 {
			shares[i] = 1
		}
	}
	return shares
}

// lowerFailed lowers the shared "lowest definitively failed group" index to
// i if i is smaller than the current value.
func lowerFailed(failed *atomic.Int64, i int) {
	for {
		cur := failed.Load()
		if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// solveGroups searches the independent subproblems on a bounded worker pool
// and merges the results deterministically. The contract, at every
// parallelism level:
//
//   - offsets are written back through each group's ID list, so a
//     fully solved problem yields byte-identical Solution.Offsets;
//   - per-group stats are accumulated in group order;
//   - the first non-Solved group by group index — not by wall-clock race
//     order — determines the result;
//   - cfg.MaxSteps is a shared pot: each group receives a fair share up
//     front, and steps that solved groups leave unused fund sequential
//     in-order retries of groups that ran out of their share.
//
// Cooperative cancellation stops sibling searches as soon as one group
// fails definitively (Exhausted): a failure at group i cancels only groups
// with a higher index, so every group below the determining failure still
// reaches its own deterministic verdict.
//
// A one-buffer group is answered without a search (placeAlone) when that
// cannot change what any caller observes: no fault-injection hook would
// have been called, and the cancel and deadline polls of the search's first
// budget check, taken here instead, pass. Both stop
// sources only stay stopped once they fire, so a search the shortcut falls
// back to hears the same answer when it polls again. sample receives each
// group's steps, as the search's OnSample would.
func solveGroups(p *buffers.Problem, cfg Config, groups [][]int, sample func(int64)) Result {
	n := len(groups)
	runs := make([]groupRun, n)
	shares := splitBudget(cfg.MaxSteps, n)

	// failed holds the lowest group index that failed definitively; groups
	// above it are cancelled (or skipped before they start).
	var failed atomic.Int64
	failed.Store(int64(n))

	// polls is group i's cancellation poll: a lower group failed for real,
	// or the call's context ended.
	polls := func(i int) bool {
		return failed.Load() < int64(i) || done(cfg.Ctx)
	}
	runGroup := func(i int) {
		r := &runs[i]
		// Containment boundary: a panic anywhere in this group's search —
		// worker code, the solver, or a user-supplied hook called from it —
		// is converted into an Internal result instead of crashing the
		// process (or, under parallelism, the whole program via an
		// unrecovered goroutine panic).
		defer func() {
			if rec := recover(); rec != nil {
				r.res = telamon.Result{Status: telamon.Internal}
				r.err = internalError(fmt.Sprintf("subproblem group %d", i), rec)
				lowerFailed(&failed, i)
			}
		}()
		r.share = shares[i]
		r.ids = groups[i]
		if polls(i) {
			// A lower group already failed for real: this group's result
			// cannot influence the outcome, so skip the search entirely.
			r.res = telamon.Result{Status: telamon.Cancelled}
			return
		}
		start := time.Now()
		if len(r.ids) == 1 && cfg.Hook == nil && !polls(i) &&
			(cfg.Deadline.IsZero() || !time.Now().After(cfg.Deadline)) {
			r.res = placeAlone(p.Buffers[r.ids[0]], p.Memory)
			sample(r.res.Stats.Steps)
			r.elapsed = time.Since(start)
			return
		}
		r.sub = p.Subset(r.ids)
		r.res = solveComponent(r.sub, cfg, r.share, func() bool { return polls(i) }, sample, i)
		r.elapsed = time.Since(start)
		if r.res.Status == telamon.Exhausted || r.res.Status == telamon.Internal {
			lowerFailed(&failed, i)
		}
	}

	if par := effectiveParallelism(cfg, n); par <= 1 {
		for i := range runs {
			runGroup(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(par)
		for w := 0; w < par; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runGroup(i)
				}
			}()
		}
		wg.Wait()
	}

	return mergeGroups(p, cfg, runs, sample)
}

// mergeGroups performs the deterministic sequential merge: leftover-funded
// retries in group order, stats accumulation in group order, and the first
// non-Solved group deciding the result.
func mergeGroups(p *buffers.Problem, cfg Config, runs []groupRun, sample func(int64)) Result {
	out := Result{
		Status:      telamon.Solved,
		Solution:    buffers.NewSolution(len(p.Buffers)),
		Subproblems: len(runs),
		Groups:      make([]GroupReport, len(runs)),
	}

	// The leftover pot collects the steps solved groups did not use. Only
	// groups that ran to their own verdict contribute — a cancelled group
	// stops at a wall-clock-dependent point, and counting its remainder
	// would make retry budgets (and so results) depend on timing.
	var leftover int64
	if cfg.MaxSteps > 0 {
		for i := range runs {
			if runs[i].res.Status == telamon.Solved {
				if unused := runs[i].share - runs[i].res.Stats.Steps; unused > 0 {
					leftover += unused
				}
			}
		}
	}

	for i := range runs {
		r := &runs[i]
		if r.res.Status == telamon.Budget && cfg.MaxSteps > 0 && leftover > 0 {
			// The group ran out of its fair share while siblings left
			// steps in the pot: retry from scratch with share + leftover.
			// Retries run sequentially in group order, so the budget each
			// one sees is the same at every parallelism level.
			budget := r.share + leftover
			start := time.Now()
			r.res, r.err = retryComponent(r.sub, cfg, budget, sample, i)
			r.elapsed += time.Since(start)
			r.retried = true
			if r.res.Status == telamon.Solved {
				leftover = budget - r.res.Stats.Steps
				if leftover < 0 {
					leftover = 0
				}
			}
		}
		accumulate(&out.Stats, r.res.Stats)
		out.Groups[i] = GroupReport{
			Buffers: len(r.ids),
			Status:  r.res.Status,
			Steps:   r.res.Stats.Steps,
			Elapsed: r.elapsed,
			Retried: r.retried,
		}
		if r.res.Status != telamon.Solved {
			out.Status = r.res.Status
			out.Err = r.err
			// A failed solve has no meaningful offsets; returning the
			// partially filled solution would leave unplaced buffers at
			// address 0, indistinguishable from real placements.
			out.Solution = nil
			// Groups past the determining failure are not retried, but
			// their phase-A outcomes still belong in the report — leaving
			// them zero-valued would read as "0 buffers, solved" — and the
			// steps they spent (all of their search when nothing cancelled
			// them) belong in the stats.
			for j := i + 1; j < len(runs); j++ {
				accumulate(&out.Stats, runs[j].res.Stats)
				out.Groups[j] = GroupReport{
					Buffers: len(runs[j].ids),
					Status:  runs[j].res.Status,
					Steps:   runs[j].res.Stats.Steps,
					Elapsed: runs[j].elapsed,
				}
			}
			return out
		}
		for subID, off := range r.res.Solution.Offsets {
			out.Solution.Offsets[r.ids[subID]] = off
		}
	}
	return out
}

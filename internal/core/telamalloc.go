// Package core implements TelaMalloc itself: the heuristic-guided,
// solver-backed memory allocator of the paper (§5). It plugs a
// domain-specific policy into the Telamon search framework:
//
//   - three block-selection heuristics tried in order at every decision
//     point — longest lifetime, largest size, largest area (§5.1);
//   - solver-guided placement: each block goes to the lowest position the
//     CP solver currently considers valid, which may be underneath
//     overhangs a skyline would miss (§5.2, Figure 8b);
//   - contention-based grouping: blocks in the current high-contention
//     phase are preferred, with other phases as ordered fallbacks (§5.3);
//   - smart backtracking: conflict-driven backjumps, promotion of failed
//     candidates to the backtrack target, and stuck detection, all
//     provided by the framework (§5.4);
//   - optional ML-guided backtracking via the BacktrackChooser hook (§6);
//   - independent-subproblem splitting at times no buffer crosses (§5.3).
package core

import (
	"context"
	"fmt"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/heuristics"
	"telamalloc/internal/obs"
	"telamalloc/internal/phases"
	"telamalloc/internal/telamon"
)

// PlacementMode selects how a candidate block's position is chosen.
type PlacementMode int

const (
	// SolverGuided asks the CP solver for the lowest currently-valid
	// position (Figure 8b). This is TelaMalloc's production setting.
	SolverGuided PlacementMode = iota
	// SkylineTop drops the block on top of its placed temporal neighbours
	// (Figure 8a), the simple strategy the paper shows is insufficient.
	SkylineTop
)

// BacktrackChooser lets an external component (the learned model of §6)
// override major-backtrack targets. Choose returns the stack index to
// resume at; ok=false falls back to the default conflict-driven jump.
type BacktrackChooser interface {
	Choose(st *telamon.State, exhausted *telamon.DecisionPoint) (target int, ok bool)
}

// CandidateGate decides, per decision point, whether to generate the
// expensive candidate set (every unplaced buffer as fallback) or the cheap
// one (the three heuristic picks per phase). This is the step-level learned
// gate §8.3 of the paper proposes as future work; see mlpolicy.StepGate.
type CandidateGate interface {
	Expensive(st *telamon.State) bool
}

// Config tunes TelaMalloc. The zero value is the production configuration.
type Config struct {
	// MaxSteps caps placement attempts per subproblem (0 = unlimited).
	MaxSteps int64
	// Deadline aborts the allocation when passed (zero = none).
	Deadline time.Time
	// Placement selects the placement strategy (default SolverGuided).
	Placement PlacementMode
	// DisablePhases turns off contention-based grouping (ablation).
	DisablePhases bool
	// DisableSplit turns off independent-subproblem splitting (ablation).
	DisableSplit bool
	// DisableConflictDriven reverts major backtracks to fixed one-level
	// hops (ablation; the paper's "initial implementation").
	DisableConflictDriven bool
	// DisablePromotion turns off candidate promotion on major backtracks.
	DisablePromotion bool
	// NoFallbackCandidates restricts each decision point to the paper's
	// three heuristic picks per phase instead of falling through to every
	// unplaced buffer. More major backtracks occur; used when training and
	// evaluating the learned backtracking policy, which assumes the paper's
	// candidate economics.
	NoFallbackCandidates bool
	// StuckThreshold forwards to the framework (0 = default 100,
	// negative = disabled).
	StuckThreshold int
	// Parallelism bounds how many independent subproblems (§5.3 splits)
	// are searched concurrently. 0 selects GOMAXPROCS; 1 solves the
	// groups sequentially in group order. Status and Solution are
	// identical at every parallelism level; only wall-clock time and, on
	// failure paths, the per-group reports and aggregate stats may differ.
	Parallelism int
	// Ctx, when non-nil, cancels the solve when the context is done —
	// cancelled or past its deadline — reporting telamon.Cancelled. Every
	// search worker polls Ctx.Err() on the budget-poll stride, so
	// cancellation latency is bounded by the stride.
	Ctx context.Context
	// Hook, when non-nil, is a test-only fault-injection point: it is
	// called on every budget check of every subproblem search with a
	// stable point label ("group<i>"), and returning true starves that
	// search's budget (status telamon.Budget). The hook may stall or
	// panic; panics are contained and surface as telamon.Internal. See
	// internal/faultinject. Must be nil in production configurations.
	Hook func(point string) bool
	// Obs, when non-nil, routes this solve's telemetry (effort counters,
	// per-solve histograms, the stride-sampled live step counter) into the
	// given registry instead of the process-global obs.Default(). Recording
	// is always on: it costs a handful of atomic adds per solve plus one
	// atomic add per budget-poll stride, which benchmarks cannot
	// distinguish from noise.
	Obs *obs.Registry
	// Chooser, when non-nil, supplies learned backtrack decisions.
	Chooser BacktrackChooser
	// Gate, when non-nil, decides per decision point whether to build the
	// expensive candidate set; it overrides NoFallbackCandidates.
	Gate CandidateGate
}

// Result is the outcome of an allocation: the framework result plus
// aggregate statistics across subproblems.
type Result struct {
	Status telamon.Status
	// Err carries the failure detail for statuses that have one: the
	// input-validation error when Status is telamon.Invalid, the
	// attributed panic when Status is telamon.Internal, nil otherwise. It
	// keeps structurally invalid input and contained crashes
	// distinguishable from a genuinely exhausted search.
	Err error
	// Solution holds the packed offsets when Status is Solved and is nil
	// otherwise: a failed solve has no meaningful offsets, and a
	// partially filled solution would leave unplaced buffers at address
	// 0, indistinguishable from real placements.
	Solution *buffers.Solution
	Stats    telamon.Stats
	// Subproblems is the number of independent components solved.
	Subproblems int
	// Groups reports each independent component's outcome in group (time)
	// order; empty for problems with no buffers.
	Groups []GroupReport
}

// Solve runs TelaMalloc on p. Independent subproblems are dispatched to a
// bounded worker pool (Config.Parallelism) with a deterministic merge; see
// solveGroups for the contract. Every solve records its effort telemetry
// into Config.Obs (default: the process-global registry); during the
// search, progress is additionally sampled on the budget-poll stride so
// live scrapes see long solves move.
func Solve(p *buffers.Problem, cfg Config) Result {
	m := solverMetricsFor(cfg.Obs)
	start := time.Now()
	res := solve(p, cfg, m.sampler())
	m.record(res, time.Since(start))
	return res
}

// solve is Solve without the telemetry wrapper; sample feeds the live steps
// counter.
func solve(p *buffers.Problem, cfg Config, sample func(int64)) Result {
	if err := p.Validate(); err != nil {
		return Result{Status: telamon.Invalid, Err: err}
	}
	cfg.Hook = guardHook(cfg.Hook)
	if len(p.Buffers) == 0 {
		return Result{Status: telamon.Solved, Solution: buffers.NewSolution(0)}
	}
	var groups [][]int
	if cfg.DisableSplit {
		ids := make([]int, len(p.Buffers))
		for i := range ids {
			ids[i] = i
		}
		groups = [][]int{ids}
	} else {
		groups = phases.SplitIndependent(p)
	}
	return solveGroups(p, cfg, groups, sample)
}

// Allocator adapts Solve to the heuristics.Allocator interface so the
// experiment harness can treat every strategy uniformly.
type Allocator struct {
	Config Config
}

// Name implements heuristics.Allocator.
func (a Allocator) Name() string { return "telamalloc" }

// Allocate implements heuristics.Allocator. Validation and containment
// errors are returned verbatim so callers can distinguish bad input and
// contained panics from a failed search.
func (a Allocator) Allocate(p *buffers.Problem) (*buffers.Solution, error) {
	return Solve(p, a.Config).Allocated()
}

// Allocated returns res the way Allocate answers: the solution, or the
// error saying why there is none.
func (res Result) Allocated() (*buffers.Solution, error) {
	if res.Err != nil {
		return nil, res.Err
	}
	if res.Status != telamon.Solved {
		return nil, fmt.Errorf("telamalloc: %v after %d steps", res.Status, res.Stats.Steps)
	}
	return res.Solution, nil
}

var _ heuristics.Allocator = Allocator{}

// solveComponent searches one independent subproblem. maxSteps is the
// group's allotment from the shared pot (0 = unlimited), cancel the
// cancellation poll, sample the search's OnSample callback, and group the
// subproblem's index, which names it to the fault-injection hook.
func solveComponent(p *buffers.Problem, cfg Config, maxSteps int64, cancel func() bool, sample func(int64), group int) telamon.Result {
	policy := newPolicy(p, cfg)
	opts := telamon.Options{
		MaxSteps:              maxSteps,
		Deadline:              cfg.Deadline,
		StuckThreshold:        cfg.StuckThreshold,
		DisableConflictDriven: cfg.DisableConflictDriven,
		DisablePromotion:      cfg.DisablePromotion,
		Cancel:                cancel,
	}
	if cfg.Hook != nil {
		hook, point := cfg.Hook, groupPoint(group)
		opts.TestHook = func() bool { return hook(point) }
	}
	opts.OnSample = sample
	return telamon.Search(p, nil, policy, opts)
}

func accumulate(dst *telamon.Stats, src telamon.Stats) {
	dst.Steps += src.Steps
	dst.Placements += src.Placements
	dst.MinorBacktracks += src.MinorBacktracks
	dst.MajorBacktracks += src.MajorBacktracks
	if src.MaxDepth > dst.MaxDepth {
		dst.MaxDepth = src.MaxDepth
	}
	dst.SolverStats.Propagations += src.SolverStats.Propagations
	dst.SolverStats.OrderFixes += src.SolverStats.OrderFixes
	dst.SolverStats.Conflicts += src.SolverStats.Conflicts
	dst.SolverStats.PairWakeups += src.SolverStats.PairWakeups
}

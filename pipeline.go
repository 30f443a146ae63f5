package telamalloc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/cache"
	"telamalloc/internal/core"
	"telamalloc/internal/faultinject"
	"telamalloc/internal/heuristics"
	"telamalloc/internal/spill"
	"telamalloc/internal/telamon"
)

// AllocatePipeline runs the production escalation ladder the paper's
// deployment story describes (§7.2): cheap heuristics first, the TelaMalloc
// search when they fail, and spill planning as the last resort, so the
// caller always gets either a packing, a degradation plan, or a structured
// failure — never a crash and never an unbounded stall.
//
// The default ladder is greedy → best-fit → search → spill. Each stage is
// run inside a panic-containment boundary: a stage that panics (including a
// misbehaving learned policy inside the search) records ErrInternal for
// that stage and the ladder escalates instead of crashing the process. A
// done call context (Allocator.Pipeline's ctx) stops the ladder with
// ErrCancelled.
//
// One global budget — WithMaxSteps for search steps, WithTimeout for wall
// clock — is carved into per-stage shares (WithStageShare); whatever a
// stage leaves unused rolls forward to the stages after it.

// Stage names accepted by WithStages and WithStageShare, in the default
// ladder order.
const (
	StageGreedy  = "greedy"
	StageBestFit = "best-fit"
	StageSearch  = "search"
	StageSpill   = "spill"
)

// defaultLadder is the escalation order when WithStages is not given.
var defaultLadder = []string{StageGreedy, StageBestFit, StageSearch, StageSpill}

// defaultShares weight the global step/time pot across stages. The
// heuristic stages are practically instant, so nearly the whole pot belongs
// to the search, with a reserve for spill planning's repeated solves.
var defaultShares = map[string]float64{
	StageGreedy:  0.01,
	StageBestFit: 0.01,
	StageSearch:  0.68,
	StageSpill:   0.30,
}

// pipelineConfig is the pipeline-specific part of config.
type pipelineConfig struct {
	stages    []string
	shares    map[string]float64
	maxSpills int
	weights   []int64
	pinned    []bool
}

// WithStages overrides the escalation ladder. Stages run in the given
// order; each must be one of StageGreedy, StageBestFit, StageSearch,
// StageSpill, and may appear at most once.
func WithStages(stages ...string) Option {
	// Non-nil even for zero stages, so an explicitly empty ladder is
	// rejected instead of silently becoming the default one.
	return func(c *config) { c.pipe.stages = append(make([]string, 0, len(stages)), stages...) }
}

// WithStageShare sets a stage's weight when carving the global deadline and
// step pot. Weights are relative: a stage's budget is its weight divided by
// the summed weights of the stages that have not run yet, applied to
// whatever budget remains — so unused budget automatically rolls forward.
func WithStageShare(stage string, share float64) Option {
	return func(c *config) {
		if c.pipe.shares == nil {
			c.pipe.shares = make(map[string]float64)
		}
		c.pipe.shares[stage] = share
	}
}

// WithMaxSpills caps evictions in the spill stage (0 = no cap).
func WithMaxSpills(n int) Option {
	return func(c *config) { c.pipe.maxSpills = n }
}

// WithSpillCosts sets per-buffer spill weights and pin flags for the spill
// stage: weights[i] is the cost of demoting buffer i (nil = its size), and
// pinned[i] marks buffers that must stay on-chip (nil = none). A non-empty
// slice whose length differs from the buffer count fails the call with
// ErrInvalidProblem before any stage runs.
func WithSpillCosts(weights []int64, pinned []bool) Option {
	return func(c *config) {
		c.pipe.weights = append([]int64(nil), weights...)
		c.pipe.pinned = append([]bool(nil), pinned...)
	}
}

// StageReport is one stage's outcome inside a PipelineResult.
type StageReport struct {
	// Stage is the stage name (StageGreedy, ...).
	Stage string
	// Err is nil when the stage produced the winning solution; otherwise
	// it wraps exactly one public sentinel explaining why the ladder
	// escalated past the stage.
	Err error
	// Skipped marks stages that never ran, with SkipReason saying why
	// (provable infeasibility, an earlier win, or cancellation).
	Skipped    bool
	SkipReason string
	// Stats holds search-effort counters for stages that search.
	Stats Stats
	// StepBudget is the share of the global step pot the stage received
	// (0 = unlimited).
	StepBudget int64
	// Elapsed is the stage's wall-clock time.
	Elapsed time.Duration
}

// SpillPlan describes the degradation the spill stage chose.
type SpillPlan struct {
	// Spilled lists evicted buffer indices (into Problem.Buffers) in
	// eviction order; their Solution offsets are -1.
	Spilled []int
	// SpillCost is the summed weight of evicted buffers.
	SpillCost int64
	// Attempts counts the retained sets planning tried, from the whole
	// problem down to the one that packed.
	Attempts int
	// Searched counts the attempts that ran the search; the others were
	// skipped because a proof said they could not succeed (DESIGN.md §8).
	Searched int
}

// DecisionTrace is the replayable record of a pipeline win: which stage
// produced the packing and the packing itself in canonical buffer order,
// keyed by the problem's shape fingerprint. Feeding a trace back through
// WithHints lets a later solve of a fingerprint-equal problem — or the same
// buffers under a larger capacity — skip the ladder entirely. Traces are
// advisory: replay validates against the new problem and falls through to
// the cold ladder when the trace does not fit.
type DecisionTrace struct {
	// Winner is the stage whose packing the trace records.
	Winner string
	// Shape is the canonical shape fingerprint (internal/cache.ShapeKey) of
	// the problem the trace solved. Replay refuses traces whose shape does
	// not match the new problem, before even attempting validation.
	Shape string
	// Offsets is the packing in canonical buffer order, transportable onto
	// any problem with the same Shape via the canonical permutation.
	Offsets []int64
}

// PipelineResult is the structured outcome of AllocatePipeline.
type PipelineResult struct {
	// Solution holds the packing when Err is nil. When Degraded, spilled
	// buffers carry offset -1 and the remaining offsets form a valid
	// packing of the retained set.
	Solution Solution
	// Winner is the stage that produced the solution ("" on failure).
	Winner string
	// Degraded reports that the solution required evicting buffers.
	Degraded bool
	// Spill is set whenever the spill stage won, even with zero evictions
	// (Attempts is still informative); Degraded is true only when Spilled
	// is non-empty.
	Spill *SpillPlan
	// Stages reports every configured stage in ladder order.
	Stages []StageReport
	// LowerBound is the contention peak — an unconditional lower bound on
	// the memory any packing needs. On hard failure it is the evidence:
	// LowerBound > Memory proves no packing exists.
	LowerBound int64
	// Memory echoes the problem's limit, so LowerBound is interpretable.
	Memory int64
	// SlotBound is the alignment-slot lower bound (DESIGN.md §8), set when
	// the ladder computed it: on reaching its first searching stage, when
	// the contention peak fits memory. SlotBound > Memory proves no packing
	// exists. It is 0 when not computed and when no buffer has an
	// alignment above one.
	SlotBound int64
	// Trace is the replayable record of the win, exported for full
	// (non-degraded) packings so callers can warm-start repeated problems
	// via WithHints. Nil on failure and for degraded results — a packing
	// with evicted buffers is not transportable.
	Trace *DecisionTrace
	// HintReplayed reports that the solution came from replaying a
	// WithHints trace rather than running the ladder.
	HintReplayed bool
}

// AllocatePipeline packs the problem through the escalation ladder. A nil
// error guarantees a usable result: either a full packing (Degraded false,
// same validity contract as Allocate) or a spill-degraded one (Degraded
// true). On failure the error wraps exactly one public sentinel and
// PipelineResult still carries the per-stage evidence.
//
// AllocatePipeline is a thin wrapper over a shared zero-option [Allocator]
// handle; programs making repeated calls with the same options should build
// their own handle with [New] and call [Allocator.Pipeline].
func AllocatePipeline(p Problem, opts ...Option) (PipelineResult, error) {
	return defaultHandle().Pipeline(context.Background(), p, opts...)
}

// pipelineWith runs one ladder pass under an already-validated config,
// recording per-stage telemetry into pm.
func pipelineWith(c config, pm *pipelineMetrics, p Problem) (PipelineResult, error) {
	pm.runs.Inc()
	out := PipelineResult{Memory: p.Memory}
	q, err := validated(p)
	if err != nil {
		return out, err
	}
	// Spill costs of the wrong length are invalid whichever stage would
	// win; WithSpillCosts stores an empty slice as nil.
	if w := c.pipe.weights; w != nil && len(w) != len(q.Buffers) {
		return out, fmt.Errorf("%w: spill: %d weights for %d buffers", ErrInvalidProblem, len(w), len(q.Buffers))
	}
	if pin := c.pipe.pinned; pin != nil && len(pin) != len(q.Buffers) {
		return out, fmt.Errorf("%w: spill: %d pinned flags for %d buffers", ErrInvalidProblem, len(pin), len(q.Buffers))
	}
	out.LowerBound = buffers.Contention(q).Peak()

	ladder := c.pipe.stages
	if ladder == nil {
		ladder = defaultLadder
	}
	if err := validateLadder(ladder); err != nil {
		return out, err
	}

	// Provable infeasibility: no packing fits under the contention peak,
	// so every packing stage would only burn its budget before failing.
	// Jump straight to degradation. proof says why, "" while none is known.
	var proof string
	if out.LowerBound > p.Memory {
		proof = fmt.Sprintf("provably infeasible: lower bound %d > memory %d", out.LowerBound, p.Memory)
	}

	fp, perm := cache.Canonicalize(q)

	// Hint replay: a trace from a previous fingerprint-equal win, replayed
	// through the canonical permutation and re-validated, settles the whole
	// ladder for the cost of one validation sweep. An unusable hint (wrong
	// shape, stale offsets, panic during replay) is silently discarded and
	// the cold ladder below runs exactly as if no hint existed.
	if proof == "" && c.hint != nil {
		if sol := replayTrace(c.hint, q, fp, perm); sol != nil {
			pm.replays.Inc()
			out.Winner = c.hint.Winner
			out.Solution = Solution{Offsets: sol.Offsets}
			out.HintReplayed = true
			out.Trace = &DecisionTrace{
				Winner:  c.hint.Winner,
				Shape:   fp.ShapeKey,
				Offsets: cache.ToCanonical(sol.Offsets, perm),
			}
			for _, s := range ladder {
				out.Stages = append(out.Stages, StageReport{Stage: s, Skipped: true, SkipReason: "hint replay succeeded"})
			}
			return out, nil
		}
	}

	run := newLadderRun(c, pm, q, ladder)
	slotChecked := false
	for i, stage := range ladder {
		if err := run.ctxErr(); err != nil {
			run.skipFrom(i, "pipeline cancelled")
			out.Stages = run.reports
			return out, fmt.Errorf("%w: %v", ErrCancelled, err)
		}
		// The alignment-slot bound is computed where searching starts, not
		// at entry: the heuristics win many calls, which should not pay for
		// it.
		if proof == "" && !slotChecked && (stage == StageSearch || stage == StageSpill) {
			slotChecked = true
			out.SlotBound = buffers.AlignSlotBound(q)
			if out.SlotBound > p.Memory {
				proof = fmt.Sprintf("provably infeasible: alignment-slot bound %d > memory %d", out.SlotBound, p.Memory)
			}
		}
		if proof != "" && stage != StageSpill {
			run.skip(stage, proof)
			continue
		}
		rep, sol, plan := run.runStage(stage)
		if sol != nil {
			run.skipFrom(i+1, "earlier stage succeeded")
			out.Stages = run.reports
			out.Winner = stage
			out.Solution = Solution{Offsets: sol.Offsets}
			if plan != nil {
				out.Spill = plan
				out.Degraded = len(plan.Spilled) > 0
				pm.spilled.Add(int64(len(plan.Spilled)))
			}
			if !out.Degraded {
				out.Trace = &DecisionTrace{
					Winner:  stage,
					Shape:   fp.ShapeKey,
					Offsets: cache.ToCanonical(sol.Offsets, perm),
				}
			}
			return out, nil
		}
		if errors.Is(rep.Err, ErrCancelled) {
			run.skipFrom(i+1, "pipeline cancelled")
			out.Stages = run.reports
			return out, rep.Err
		}
	}
	out.Stages = run.reports
	return out, run.failure(out)
}

// replayTrace transports a decision trace onto q and returns the packing
// when it is provably valid, nil otherwise. The shape check rejects traces
// from structurally different problems before validation; the containment
// boundary turns any replay panic into a cold-path fallthrough, matching
// the pipeline's never-crash contract.
func replayTrace(t *DecisionTrace, q *buffers.Problem, fp cache.Fingerprint, perm []int) (sol *buffers.Solution) {
	defer func() {
		if recover() != nil {
			sol = nil
		}
	}()
	if t == nil || t.Shape != fp.ShapeKey {
		return nil
	}
	offsets := cache.Replay(t.Offsets, perm)
	if offsets == nil {
		return nil
	}
	candidate := &buffers.Solution{Offsets: offsets}
	if candidate.Validate(q) != nil {
		return nil
	}
	return candidate
}

// validateLadder rejects unknown or duplicated stage names.
func validateLadder(ladder []string) error {
	if len(ladder) == 0 {
		return fmt.Errorf("%w: empty pipeline ladder", ErrInvalidProblem)
	}
	seen := make(map[string]bool, len(ladder))
	for _, s := range ladder {
		switch s {
		case StageGreedy, StageBestFit, StageSearch, StageSpill:
		default:
			return fmt.Errorf("%w: unknown pipeline stage %q", ErrInvalidProblem, s)
		}
		if seen[s] {
			return fmt.Errorf("%w: duplicate pipeline stage %q", ErrInvalidProblem, s)
		}
		seen[s] = true
	}
	return nil
}

// ladderRun carries the escalation state: remaining budget, per-stage
// reports, and the configuration shared by all stages.
type ladderRun struct {
	c              config
	pm             *pipelineMetrics
	q              *buffers.Problem
	ladder         []string
	remainingSteps int64
	globalDeadline time.Time
	reports        []StageReport
	started        int // stages run or skipped so far
	// searchFailed is the step budget of a search stage that failed on
	// the whole problem by running out of steps or exhausting its space,
	// with no fault hook armed (-1 = none; 0 = unlimited).
	searchFailed int64
}

// newLadderRun starts the escalation with the call's global budget: the
// step pot from WithMaxSteps and the deadline callConfig resolved from
// WithTimeout.
func newLadderRun(c config, pm *pipelineMetrics, q *buffers.Problem, ladder []string) *ladderRun {
	return &ladderRun{c: c, pm: pm, q: q, ladder: ladder,
		remainingSteps: c.core.MaxSteps, globalDeadline: c.core.Deadline, searchFailed: -1}
}

func (lr *ladderRun) ctxErr() error {
	if ctx := lr.c.core.Ctx; ctx != nil {
		return ctx.Err()
	}
	return nil
}

// shareOf returns stage's weight under the configured (or default) shares.
func (lr *ladderRun) shareOf(stage string) float64 {
	if lr.c.pipe.shares != nil {
		if w, ok := lr.c.pipe.shares[stage]; ok && w > 0 {
			return w
		}
	}
	if w, ok := defaultShares[stage]; ok {
		return w
	}
	return 1
}

// carve computes the stage's slice of the remaining step pot and wall
// clock: its weight over the summed weights of the not-yet-run stages.
// Stages that left budget unused implicitly roll it forward, because every
// carve starts from what actually remains.
func (lr *ladderRun) carve(stage string) (steps int64, deadline time.Time) {
	var sum float64
	for _, s := range lr.ladder[lr.started:] {
		sum += lr.shareOf(s)
	}
	frac := 1.0
	if sum > 0 {
		frac = lr.shareOf(stage) / sum
	}
	if lr.remainingSteps > 0 {
		steps = int64(float64(lr.remainingSteps) * frac)
		if steps < 1 {
			steps = 1
		}
	}
	deadline = lr.globalDeadline
	if !deadline.IsZero() && frac < 1 {
		if left := time.Until(deadline); left > 0 {
			deadline = time.Now().Add(time.Duration(float64(left) * frac))
		}
	}
	return steps, deadline
}

// skip records a stage that never ran.
func (lr *ladderRun) skip(stage, reason string) {
	if sm := lr.pm.stages[stage]; sm != nil {
		sm.skipped.Inc()
	}
	lr.reports = append(lr.reports, StageReport{Stage: stage, Skipped: true, SkipReason: reason})
	lr.started++
}

// skipFrom marks every stage at index i and beyond as skipped.
func (lr *ladderRun) skipFrom(i int, reason string) {
	for _, s := range lr.ladder[i:] {
		lr.skip(s, reason)
	}
}

// runStage executes one stage inside the containment boundary and records
// its report. A non-nil sol means the stage won; plan is non-nil only for
// the spill stage.
func (lr *ladderRun) runStage(stage string) (rep StageReport, sol *buffers.Solution, plan *SpillPlan) {
	steps, deadline := lr.carve(stage)
	rep = StageReport{Stage: stage, StepBudget: steps}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				sol, plan = nil, nil
				rep.Err = fmt.Errorf("%w: panic in stage %s: %v", ErrInternal, stage, r)
			}
		}()
		if hook := lr.c.core.Hook; hook != nil {
			hook(faultinject.StageEntry(stage))
		}
		sol, plan, rep.Stats, rep.Err = lr.execute(stage, steps, deadline)
		if hook := lr.c.core.Hook; hook != nil {
			// The exit point sits inside the containment boundary on
			// purpose: a crash while the stage's verdict is being handed
			// back discards the result and fails the stage, so the ladder
			// escalates instead of trusting a half-delivered answer.
			hook(faultinject.StageExit(stage))
		}
	}()
	rep.Elapsed = time.Since(start)
	if rep.Stats.Steps > 0 && lr.remainingSteps > 0 {
		lr.remainingSteps -= rep.Stats.Steps
		if lr.remainingSteps < 1 {
			lr.remainingSteps = 1 // a zero pot would read as "unlimited"
		}
	}
	if sm := lr.pm.stages[stage]; sm != nil {
		sm.seconds.ObserveDuration(rep.Elapsed.Nanoseconds())
		sm.steps.Add(rep.Stats.Steps)
		sm.budget.Add(rep.StepBudget)
		if sol != nil {
			sm.won.Inc()
		} else {
			sm.failed.Inc()
		}
	}
	lr.reports = append(lr.reports, rep)
	lr.started++
	return rep, sol, plan
}

// execute dispatches one stage. Every error path wraps exactly one public
// sentinel.
func (lr *ladderRun) execute(stage string, steps int64, deadline time.Time) (*buffers.Solution, *SpillPlan, Stats, error) {
	switch stage {
	case StageGreedy:
		sol, err := heuristics.GreedyContention{}.Allocate(lr.q)
		if err != nil {
			return nil, nil, Stats{}, fmt.Errorf("%w: greedy: %v", ErrNoSolution, err)
		}
		return sol, nil, Stats{}, nil
	case StageBestFit:
		sol, err := heuristics.BestFit{}.Allocate(lr.q)
		if err != nil {
			return nil, nil, Stats{}, fmt.Errorf("%w: best-fit: %v", ErrNoSolution, err)
		}
		return sol, nil, Stats{}, nil
	case StageSearch:
		cfg := lr.searchConfig(steps, deadline)
		res := core.Solve(lr.q, cfg)
		st := statsFrom(res)
		// A deadline cut leaves the search past it; a fault hook can
		// starve or stop any search. Neither says what another run would do.
		stepsOut := res.Status == telamon.Budget && (deadline.IsZero() || time.Now().Before(deadline))
		if (stepsOut || res.Status == telamon.Exhausted) && cfg.Hook == nil {
			lr.searchFailed = steps
		}
		switch res.Status {
		case telamon.Solved:
			return res.Solution, nil, st, nil
		case telamon.Budget:
			return nil, nil, st, fmt.Errorf("%w: search stage", ErrBudget)
		case telamon.Cancelled:
			return nil, nil, st, fmt.Errorf("%w: search stage", ErrCancelled)
		case telamon.Internal:
			return nil, nil, st, fmt.Errorf("%w: search stage: %v", ErrInternal, res.Err)
		default:
			return nil, nil, st, fmt.Errorf("%w: search stage", ErrNoSolution)
		}
	case StageSpill:
		alloc := &effortAllocator{Allocator: core.Allocator{Config: lr.searchConfig(steps, deadline)}}
		req := spill.Request{
			Problem:   lr.q,
			Weights:   lr.c.pipe.weights,
			Pinned:    lr.c.pipe.pinned,
			Allocator: alloc,
			MaxSpills: lr.c.pipe.maxSpills,
			Ctx:       lr.c.core.Ctx,
			Deadline:  deadline,
			// The search is deterministic: a budget no larger than the one
			// it failed with fails too (0 = unlimited).
			SearchFailed: lr.searchFailed == 0 || (lr.searchFailed > 0 && steps > 0 && steps <= lr.searchFailed),
		}
		plan, err := spill.Make(req)
		if err != nil {
			switch {
			case errors.Is(err, spill.ErrCancelled):
				err = fmt.Errorf("%w: spill stage: %v", ErrCancelled, err)
			case errors.Is(err, spill.ErrDeadline):
				err = fmt.Errorf("%w: spill stage: %v", ErrBudget, err)
			case errors.Is(err, spill.ErrAllocatorPanic), errors.Is(err, core.ErrPanic):
				err = fmt.Errorf("%w: spill stage: %v", ErrInternal, err)
			default:
				err = fmt.Errorf("%w: spill stage: %v", ErrNoSolution, err)
			}
			return nil, nil, alloc.stats, err
		}
		return plan.Solution, &SpillPlan{
			Spilled:   append([]int(nil), plan.Spilled...),
			SpillCost: plan.SpillCost,
			Attempts:  plan.Attempts,
			Searched:  plan.Searched,
		}, alloc.stats, nil
	}
	return nil, nil, Stats{}, fmt.Errorf("%w: unknown pipeline stage %q", ErrInvalidProblem, stage)
}

// searchConfig finalizes the user config for a searching stage with the
// stage's carved budget.
func (lr *ladderRun) searchConfig(steps int64, deadline time.Time) core.Config {
	cfg := lr.c.finalize(lr.q)
	cfg.MaxSteps = steps
	cfg.Deadline = deadline
	return cfg
}

// effortAllocator is the spill stage's allocator: core.Allocator, summing
// the effort of every search it runs into stats. Its config carries the
// call context, so a cancel stops the attempt in flight.
type effortAllocator struct {
	core.Allocator
	stats Stats
}

func (a *effortAllocator) Allocate(p *buffers.Problem) (*buffers.Solution, error) {
	res := core.Solve(p, a.Config)
	st := statsFrom(res)
	a.stats.Steps += st.Steps
	a.stats.Placements += st.Placements
	a.stats.MinorBacktracks += st.MinorBacktracks
	a.stats.MajorBacktracks += st.MajorBacktracks
	a.stats.Subproblems += st.Subproblems
	return res.Allocated()
}

func statsFrom(res core.Result) Stats {
	return Stats{
		Steps:           res.Stats.Steps,
		Placements:      res.Stats.Placements,
		MinorBacktracks: res.Stats.MinorBacktracks,
		MajorBacktracks: res.Stats.MajorBacktracks,
		Subproblems:     res.Subproblems,
	}
}

// failure picks the terminal error after every stage failed: the verdict
// of the last stage that actually ran, since the ladder escalates and the
// final stage is the most empowered one — a greedy miss means nothing once
// the search has spoken, and ErrCannotFit from the spill stage outranks
// both. (Cancellation never reaches here; the ladder returns ErrCancelled
// as soon as a stage reports it.) The PipelineResult carries the
// lower-bound evidence either way.
func (lr *ladderRun) failure(out PipelineResult) error {
	for i := len(lr.reports) - 1; i >= 0; i-- {
		if rep := lr.reports[i]; !rep.Skipped && rep.Err != nil {
			return rep.Err
		}
	}
	// Every stage skipped (e.g. a ladder without a spill stage on a
	// provably infeasible problem): report the evidence directly.
	return fmt.Errorf("%w: no stage produced a packing (lower bound %d, memory %d)",
		ErrNoSolution, out.LowerBound, out.Memory)
}

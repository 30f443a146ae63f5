// Package telamalloc is a Go implementation of TelaMalloc, the on-chip
// memory allocator for machine-learning accelerators described in
//
//	Maas, Beaugnon, Chauhan, Ilbeyi:
//	"TelaMalloc: Efficient On-Chip Memory Allocation for Production
//	Machine Learning Accelerators", ASPLOS 2023.
//
// Given a set of buffers with fixed logical live ranges and sizes, and a
// scratchpad memory limit, Allocate assigns each buffer a non-overlapping
// address range. The problem is 2D bin packing with one fixed axis —
// NP-hard — and TelaMalloc solves it by combining domain-specific placement
// heuristics with a constraint-propagation solver that prunes infeasible
// branches early and explains conflicts so the search can backjump
// intelligently.
//
// The package also exposes the two classical baselines (a best-fit
// allocator and a greedy contention-ordered heuristic), an exact
// branch-and-bound solver for small instances, and an optional learned
// backtracking policy (see BacktrackModel).
package telamalloc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/cache"
	"telamalloc/internal/core"
	"telamalloc/internal/heuristics"
	"telamalloc/internal/ilp"
	"telamalloc/internal/telamon"
)

// Buffer is one allocation request: a tensor live from logical time Start
// (inclusive) to End (exclusive), occupying Size bytes. If Align > 1, the
// assigned address must be a multiple of Align.
type Buffer struct {
	Start, End int64
	Size       int64
	Align      int64
}

// Problem is a complete allocation problem.
type Problem struct {
	// Buffers are the allocation requests, in any order.
	Buffers []Buffer
	// Memory is the scratchpad capacity in bytes.
	Memory int64
	// Name optionally labels the workload for diagnostics.
	Name string
}

// Solution assigns Offsets[i] to Buffers[i].
type Solution struct {
	Offsets []int64
}

// Stats describes the search effort of an allocation.
type Stats struct {
	// Steps counts placement attempts, including failed ones.
	Steps int64
	// Placements counts successful placements (including re-placements
	// after backtracking).
	Placements int64
	// MinorBacktracks counts placements undone immediately after the
	// solver detected unsatisfiability.
	MinorBacktracks int64
	// MajorBacktracks counts exhausted decision points that forced a
	// backjump.
	MajorBacktracks int64
	// Subproblems is the number of independent components solved.
	Subproblems int
}

// Errors returned by Allocate.
var (
	// ErrNoSolution means the search space was exhausted: the problem is
	// unsatisfiable (or TelaMalloc's incomplete search could not find a
	// packing — consult SolveExact for a definitive answer on small inputs).
	ErrNoSolution = errors.New("telamalloc: no feasible packing found")
	// ErrBudget means the step budget or timeout expired first.
	ErrBudget = errors.New("telamalloc: allocation budget exhausted")
	// ErrCancelled means the call's context ended — cancelled or past its
	// deadline — before the allocation finished.
	ErrCancelled = errors.New("telamalloc: allocation cancelled")
	// ErrInvalidProblem flags structurally invalid input.
	ErrInvalidProblem = errors.New("telamalloc: invalid problem")
	// ErrInternal means a component panicked — a search worker, a learned
	// policy hook, or a portfolio member — and the panic was contained at
	// the allocator boundary instead of crashing the process. The wrapped
	// message attributes the failing component. An ErrInternal result says
	// nothing about the problem's feasibility.
	ErrInternal = errors.New("telamalloc: internal allocator failure")
)

// toInternal converts the public problem to the internal representation.
func toInternal(p Problem) *buffers.Problem {
	q := &buffers.Problem{Memory: p.Memory, Name: p.Name, Buffers: make([]buffers.Buffer, 0, len(p.Buffers))}
	for _, b := range p.Buffers {
		q.Buffers = append(q.Buffers, buffers.Buffer{
			Start: b.Start, End: b.End, Size: b.Size, Align: b.Align,
		})
	}
	q.Normalize()
	return q
}

// validated converts p and validates it: the preamble every public entry
// point shares. An invalid problem's error wraps ErrInvalidProblem.
func validated(p Problem) (*buffers.Problem, error) {
	q := toInternal(p)
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidProblem, err)
	}
	return q, nil
}

// Allocate packs the problem's buffers into memory with TelaMalloc.
// A nil error guarantees the returned solution is valid: every buffer in
// bounds, aligned, and disjoint from temporal neighbours.
//
// Allocate is a thin wrapper over a shared zero-option [Allocator] handle;
// programs making repeated calls with the same options should build their
// own handle with [New] so option validation and model binding happen once.
func Allocate(p Problem, opts ...Option) (Solution, Stats, error) {
	return defaultHandle().Allocate(context.Background(), p, opts...)
}

// allocateWith runs one allocation under an already-validated config.
func allocateWith(cfg config, p Problem) (Solution, Stats, error) {
	q, err := validated(p)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	if cfg.hint != nil {
		// A valid replayed packing settles the call for the cost of one
		// validation sweep; an unusable hint falls through to the search.
		fp, perm := cache.Canonicalize(q)
		if sol := replayTrace(cfg.hint, q, fp, perm); sol != nil {
			return Solution{Offsets: sol.Offsets}, Stats{}, nil
		}
	}
	res := core.Solve(q, cfg.finalize(q))
	st := statsFrom(res)
	switch res.Status {
	case telamon.Solved:
		return Solution{Offsets: res.Solution.Offsets}, st, nil
	case telamon.Budget:
		return Solution{}, st, ErrBudget
	case telamon.Cancelled:
		return Solution{}, st, ErrCancelled
	case telamon.Invalid:
		// Unreachable in practice: the problem was validated above.
		return Solution{}, st, fmt.Errorf("%w: %v", ErrInvalidProblem, res.Err)
	case telamon.Internal:
		return Solution{}, st, fmt.Errorf("%w: %v", ErrInternal, res.Err)
	default:
		return Solution{}, st, ErrNoSolution
	}
}

// Validate checks that sol is a correct packing for p.
func (sol Solution) Validate(p Problem) error {
	q := toInternal(p)
	s := &buffers.Solution{Offsets: sol.Offsets}
	return s.Validate(q)
}

// PeakUsage returns the highest address the solution uses — the smallest
// memory limit under which it would still be valid.
func (sol Solution) PeakUsage(p Problem) int64 {
	q := toInternal(p)
	s := &buffers.Solution{Offsets: sol.Offsets}
	return s.PeakUsage(q)
}

// AllocateGreedy runs the fast greedy baseline (contention-ordered skyline
// placement, §3.1 of the paper). It is orders of magnitude faster than the
// search but fails on tight instances; production systems try it first and
// fall back to Allocate.
func AllocateGreedy(p Problem) (Solution, error) {
	q, err := validated(p)
	if err != nil {
		return Solution{}, err
	}
	sol, err := heuristics.GreedyContention{}.Allocate(q)
	if err != nil {
		return Solution{}, ErrNoSolution
	}
	return Solution{Offsets: sol.Offsets}, nil
}

// AllocateBestFit runs the timing-unaware best-fit baseline (BFC-style).
func AllocateBestFit(p Problem) (Solution, error) {
	q, err := validated(p)
	if err != nil {
		return Solution{}, err
	}
	sol, err := heuristics.BestFit{}.Allocate(q)
	if err != nil {
		return Solution{}, ErrNoSolution
	}
	return Solution{Offsets: sol.Offsets}, nil
}

// SolveExact runs the exact branch-and-bound solver (the paper's ILP
// baseline). It either finds a packing, proves infeasibility
// (ErrNoSolution), or gives up at the budget (ErrBudget). Exponential in
// the worst case; intended for small instances and ground truth.
func SolveExact(p Problem, maxSteps int64, timeout time.Duration) (Solution, error) {
	q, err := validated(p)
	if err != nil {
		return Solution{}, err
	}
	// Timeout, not Deadline: the ILP layer resolves it when the solve
	// starts, so there is no skew between building the options and the
	// search's first node.
	res := ilp.Solve(q, nil, ilp.Options{MaxSteps: maxSteps, Timeout: timeout})
	switch res.Status {
	case ilp.Solved:
		return Solution{Offsets: res.Solution.Offsets}, nil
	case ilp.Infeasible:
		return Solution{}, ErrNoSolution
	default:
		return Solution{}, ErrBudget
	}
}

// MinimizeMemory returns the smallest memory limit for which the exact
// solver finds a packing, searching between the contention lower bound and
// p.Memory.
func MinimizeMemory(p Problem, maxSteps int64, timeout time.Duration) (int64, Solution, error) {
	q, err := validated(p)
	if err != nil {
		return 0, Solution{}, err
	}
	opts := ilp.Options{MaxSteps: maxSteps}
	// Deadline, not Timeout: the search probes one memory limit per exact
	// solve, and ilp.Options.Timeout is resolved per probe, so it would
	// give every probe the whole timeout. One deadline, resolved here,
	// bounds the whole call.
	if timeout > 0 {
		opts.Deadline = time.Now().Add(timeout)
	}
	limit, sol, ok := ilp.MinimizeMemory(q, nil, opts)
	if !ok {
		return 0, Solution{}, ErrNoSolution
	}
	return limit, Solution{Offsets: sol.Offsets}, nil
}

// MinMemoryLowerBound returns the contention peak of the problem: the sum
// of live buffer sizes maximised over time, an unconditional lower bound on
// any packing.
func MinMemoryLowerBound(p Problem) int64 {
	return buffers.Contention(toInternal(p)).Peak()
}

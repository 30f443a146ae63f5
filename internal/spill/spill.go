// Package spill implements the fallback the paper's introduction describes
// for when the allocator cannot find a packing: "the framework must apply
// techniques such as rematerialization or sharding to reduce on-chip memory
// pressure at the expense of extra computations". This package plans which
// buffers to demote to off-chip memory (equivalently: rematerialise) so
// that the remaining set becomes allocatable, trying to give up as little
// on-chip traffic as possible.
//
// The planner is greedy: while the allocator fails, it inspects the most
// contended time range and evicts the live buffer with the lowest
// cost-per-byte-of-relief, then retries. Solving the eviction set optimally
// is itself NP-hard; the greedy matches what production compilers do.
//
// An attempt that a proof says cannot succeed is counted but not searched:
// a retained set whose contention peak or alignment-slot bound exceeds
// memory, or a first attempt the caller's own search already failed. The
// victim depends on the retained set alone, so skipping changes no plan.
package spill

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/core"
	"telamalloc/internal/heuristics"
)

// ErrCannotFit is returned when even spilling every eligible buffer leaves
// the problem unsolvable (e.g. a single pinned buffer exceeds memory).
var ErrCannotFit = errors.New("spill: problem unsolvable even with maximum spilling")

// Request configures a spill plan.
type Request struct {
	// Problem is the allocation problem to make feasible. Not mutated.
	Problem *buffers.Problem
	// Weights[i] is the cost of spilling buffer i (e.g. bytes re-fetched
	// from DRAM, or recomputation cost for rematerialisation). Nil means
	// every buffer costs its size.
	Weights []int64
	// Pinned[i] marks buffers that must stay on-chip (e.g. DMA targets).
	// Nil means everything is spillable.
	Pinned []bool
	// Allocator packs the retained set; typically TelaMalloc.
	Allocator heuristics.Allocator
	// MaxSpills caps evictions (0 = no cap).
	MaxSpills int
	// Ctx, when non-nil, cancels planning: it is checked before every
	// allocation attempt, and allocators implementing ContextAllocator
	// observe it mid-solve too.
	Ctx context.Context
	// Deadline, when non-zero, is the wall-clock end of planning: it is
	// checked before every allocation attempt. It must match the
	// allocator's own deadline — past it, every attempt fails at its first
	// budget poll, which the planner would otherwise misread as "does not
	// fit" and answer by evicting buffers.
	Deadline time.Time
	// SearchFailed reports that the caller already ran Allocator's search
	// on the whole Problem, with a step budget at least as large and the
	// same configuration otherwise, and that it failed by running out of
	// steps or by exhausting its search space — not by a deadline, a
	// cancellation, a panic or an injected fault. The search is
	// deterministic and a smaller budget stops earlier on the same path,
	// so attempt 1 would fail too and is not searched.
	SearchFailed bool
}

// ContextAllocator is implemented by allocators that support cooperative
// cancellation. Make forwards Request.Ctx to them so a cancelled plan stops
// mid-solve instead of running the current attempt to its own budget.
type ContextAllocator interface {
	heuristics.Allocator
	AllocateContext(ctx context.Context, p *buffers.Problem) (*buffers.Solution, error)
}

var _ ContextAllocator = core.Allocator{}

// ErrCancelled is returned when Request.Ctx is done before a plan is found.
var ErrCancelled = errors.New("spill: planning cancelled")

// ErrDeadline is returned when Request.Deadline passes before a plan is
// found.
var ErrDeadline = errors.New("spill: planning deadline exceeded")

// ErrAllocatorPanic is wrapped when the packing allocator panics during
// planning. The panic is contained, but planning aborts: a crashing
// allocator would fail every retained set, and evicting buffers to work
// around it would misreport an internal failure as a capacity problem.
var ErrAllocatorPanic = errors.New("spill: allocator panicked")

// Plan is the result of planning.
type Plan struct {
	// Solution places every retained buffer; spilled buffers have offset -1.
	Solution *buffers.Solution
	// Spilled lists the evicted buffer IDs in eviction order.
	Spilled []int
	// SpillCost is the summed weight of evicted buffers.
	SpillCost int64
	// Attempts counts the retained sets planning tried, searched or not.
	Attempts int
	// Searched counts the attempts that called the allocator; the others
	// were proven futile.
	Searched int
}

// Make plans spills until the allocator succeeds. If the problem is already
// feasible, no buffers are spilled.
func Make(req Request) (*Plan, error) {
	p := req.Problem
	n := len(p.Buffers)
	if req.Allocator == nil {
		return nil, errors.New("spill: no allocator provided")
	}
	weights := req.Weights
	if weights == nil {
		weights = make([]int64, n)
		for i, b := range p.Buffers {
			weights[i] = b.Size
		}
	} else if len(weights) != n {
		return nil, fmt.Errorf("spill: %d weights for %d buffers", len(weights), n)
	}
	if req.Pinned != nil && len(req.Pinned) != n {
		return nil, fmt.Errorf("spill: %d pinned flags for %d buffers", len(req.Pinned), n)
	}
	pinned := func(i int) bool { return req.Pinned != nil && req.Pinned[i] }

	// retained lists the buffers still on-chip, in ID order; it is also the
	// back-map of each attempt's subset.
	retained := make([]int, n)
	for i := range retained {
		retained[i] = i
	}
	// prof is the retained set's contention profile, kept across
	// evictions: its steps stay split at evicted buffers' ends, which
	// changes neither its peak nor the buffers live at its first peak step.
	prof := buffers.Contention(p)
	plan := &Plan{}
	for {
		if req.Ctx != nil && req.Ctx.Err() != nil {
			return nil, fmt.Errorf("%w after %d attempts: %v", ErrCancelled, plan.Attempts, req.Ctx.Err())
		}
		if !req.Deadline.IsZero() && !time.Now().Before(req.Deadline) {
			return nil, fmt.Errorf("%w after %d attempts", ErrDeadline, plan.Attempts)
		}
		plan.Attempts++
		if sub := searchable(req, plan.Attempts, retained, prof); sub != nil {
			plan.Searched++
			sol, err := allocate(req, sub)
			if err == nil {
				full := buffers.NewSolution(n)
				for subID, off := range sol.Offsets {
					full.Offsets[retained[subID]] = off
				}
				plan.Solution = full
				return plan, nil
			}
			if errors.Is(err, ErrAllocatorPanic) || errors.Is(err, core.ErrPanic) {
				return nil, err
			}
		}
		if req.MaxSpills > 0 && len(plan.Spilled) >= req.MaxSpills {
			return nil, fmt.Errorf("%w: spill cap %d reached", ErrCannotFit, req.MaxSpills)
		}
		k := chooseVictim(p, retained, prof, weights, pinned)
		if k < 0 {
			return nil, ErrCannotFit
		}
		victim := retained[k]
		retained = slices.Delete(retained, k, k+1)
		prof.Remove(p.Buffers[victim])
		plan.Spilled = append(plan.Spilled, victim)
		plan.SpillCost += weights[victim]
	}
}

// searchable returns the retained set of the given attempt as a problem
// for the allocator, or nil when a proof says the allocator cannot pack
// it: the caller's search already failed on it (attempt 1 only), or its
// contention peak (from prof, its profile) or its alignment-slot bound
// exceeds memory.
func searchable(req Request, attempt int, retained []int, prof buffers.ContentionProfile) *buffers.Problem {
	if (attempt == 1 && req.SearchFailed) || prof.Peak() > req.Problem.Memory {
		return nil
	}
	sub := req.Problem.Subset(retained)
	if buffers.AlignSlotBound(sub) > sub.Memory {
		return nil
	}
	return sub
}

// allocate runs one packing attempt inside a containment boundary — a
// panicking allocator becomes a failed attempt-chain, not a crashed planner
// — and forwards the request context to allocators that can observe it.
func allocate(req Request, sub *buffers.Problem) (sol *buffers.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, fmt.Errorf("%w: %v", ErrAllocatorPanic, r)
		}
	}()
	if cm, ok := req.Allocator.(ContextAllocator); ok && req.Ctx != nil {
		return cm.AllocateContext(req.Ctx, sub)
	}
	return req.Allocator.Allocate(sub)
}

// chooseVictim picks the cheapest useful eviction among p's retained
// buffers, whose contention profile is prof: among buffers live during the
// currently most-contended time range, the one with the lowest
// weight-per-byte-of-relief (ties: larger size first, then lower ID). It
// returns the victim's index in retained, or -1 when nothing is evictable.
func chooseVictim(p *buffers.Problem, retained []int, prof buffers.ContentionProfile, weights []int64, pinned func(int) bool) int {
	if len(retained) == 0 {
		return -1
	}
	var peakStep buffers.ContentionStep
	for _, s := range prof.Steps {
		if s.Contention > peakStep.Contention {
			peakStep = s
		}
	}
	best, bestScore, bestSize := -1, 0.0, int64(0)
	for k, id := range retained {
		b := p.Buffers[id]
		if pinned(id) || b.Start >= peakStep.End || peakStep.Start >= b.End {
			continue
		}
		// Weight per byte of relief; lower is better. Buffers are visited
		// in ID order, so a tie on score and size keeps the lower ID.
		score := float64(weights[id]) / float64(b.Size)
		if best < 0 || score < bestScore || (score == bestScore && b.Size > bestSize) {
			best, bestScore, bestSize = k, score, b.Size
		}
	}
	return best
}

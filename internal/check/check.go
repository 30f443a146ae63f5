// Package check is the verification subsystem: an independent
// second-opinion validator for allocation results, a differential harness
// that drives the heuristic ladder against the exact ILP oracle, and a
// metamorphic layer of solution-preserving problem transformations
// (DESIGN.md §15).
//
// The checker here is deliberately NOT built on the allocator's own data
// path. buffers.Solution.Validate shares sweep-line code, event ordering
// conventions, and the Contention profile with the solvers it would be
// checking; a bug in that shared substrate could validate its own wrong
// answers. This package re-derives every verdict from first principles on
// the public problem schema: lifetime conflicts from an elementary-interval
// sweep over compressed time coordinates, capacity from an independent
// running-sum contention recomputation, alignment and bounds by direct
// arithmetic, and spill-plan consistency by set comparison. Agreement
// between the two validators is itself a checked property (the fuzz target
// mutates known-good solutions and demands both reject).
//
// Verdicts are reported as a Report of typed Violations rather than a
// first-error, so a differential scorecard can attribute *what kind* of
// wrongness appeared where, and so a checker rejection in a soak carries
// enough structure to debug without re-running the workload.
package check

import (
	"fmt"
	"sort"
	"strings"

	"telamalloc"
)

// Kind classifies a violation.
type Kind string

const (
	// KindCount: the offsets slice does not match the buffer count.
	KindCount Kind = "offset-count"
	// KindUnassigned: a buffer expected on-chip has offset < 0.
	KindUnassigned Kind = "unassigned"
	// KindBounds: offset+size exceeds the memory limit (or offset < 0 was
	// expected but a spilled buffer carries a real address).
	KindBounds Kind = "out-of-bounds"
	// KindAlignment: the offset is not a multiple of the buffer's alignment.
	KindAlignment Kind = "misaligned"
	// KindConflict: two lifetime-overlapping buffers overlap in memory.
	KindConflict Kind = "lifetime-conflict-overlap"
	// KindSpillPlan: the spill plan and the offsets disagree — a listed
	// buffer still has an address, an unlisted one is missing, an index is
	// out of range or duplicated, or the spill cost does not add up.
	KindSpillPlan Kind = "spill-plan-inconsistent"
	// KindOutcome: the result's own fields contradict each other (a win
	// with no winner, a degraded result with an empty spill set, ...).
	KindOutcome Kind = "outcome-inconsistent"
	// KindEvidence: a reported lower bound (the contention peak or the
	// alignment-slot bound) does not match its independent recomputation,
	// or infeasibility evidence does not actually prove infeasibility.
	KindEvidence Kind = "infeasibility-evidence"
)

// Violation is one independently established defect in a claimed result.
type Violation struct {
	// Kind classifies the defect.
	Kind Kind
	// Buffer is the offending buffer index (-1 when not buffer-specific).
	Buffer int
	// Other is the second buffer of a conflict pair (-1 otherwise).
	Other int
	// Detail is the human-readable evidence.
	Detail string
}

func (v Violation) String() string {
	switch {
	case v.Buffer >= 0 && v.Other >= 0:
		return fmt.Sprintf("%s: buffers %d/%d: %s", v.Kind, v.Buffer, v.Other, v.Detail)
	case v.Buffer >= 0:
		return fmt.Sprintf("%s: buffer %d: %s", v.Kind, v.Buffer, v.Detail)
	default:
		return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
	}
}

// Report is the checker's verdict: every violation found, not just the
// first.
type Report struct {
	Violations []Violation
}

// OK reports a clean verdict.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean verdict and an error enumerating the
// violations otherwise.
func (r Report) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("check: %d violation(s): %s", len(r.Violations), strings.Join(msgs, "; "))
}

func (r *Report) add(k Kind, buffer, other int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Kind: k, Buffer: buffer, Other: other, Detail: fmt.Sprintf(format, args...),
	})
}

// Solution verifies a claimed full packing: every buffer assigned, in
// bounds, aligned, and spatially disjoint from every lifetime-overlapping
// buffer. It is the strict verdict Allocate's nil-error contract promises.
func Solution(p telamalloc.Problem, offsets []int64) Report {
	return verify(p, offsets, nil)
}

// Degraded verifies a spill-degraded packing: spilled lists the buffer
// indices evicted off-chip, which must carry offset -1 and be excluded from
// the conflict sweep; every retained buffer must form a valid packing.
// weights gives per-buffer spill costs (nil = size), checked against
// spillCost.
func Degraded(p telamalloc.Problem, offsets []int64, spilled []int, weights []int64, spillCost int64) Report {
	r := verify(p, offsets, spilled)

	// Spill-plan consistency: the listed set and the offset<0 set must be
	// the same set, exactly once each, and the cost must add up.
	seen := make(map[int]bool, len(spilled))
	var cost int64
	for _, i := range spilled {
		if i < 0 || i >= len(p.Buffers) {
			r.add(KindSpillPlan, i, -1, "spilled index out of range (n=%d)", len(p.Buffers))
			continue
		}
		if seen[i] {
			r.add(KindSpillPlan, i, -1, "spilled index listed twice")
			continue
		}
		seen[i] = true
		if weights != nil && i < len(weights) {
			cost += weights[i]
		} else {
			cost += p.Buffers[i].Size
		}
	}
	for i, off := range offsets {
		if i < len(p.Buffers) && off < 0 && !seen[i] {
			r.add(KindSpillPlan, i, -1, "offset -1 but not in the spill plan")
		}
	}
	if len(seen) == len(spilled) && cost != spillCost {
		r.add(KindSpillPlan, -1, -1, "spill cost %d, independent sum %d", spillCost, cost)
	}
	return r
}

// verify runs the core sweeps. spilled (may be nil) lists indices allowed —
// and required — to be off-chip.
func verify(p telamalloc.Problem, offsets []int64, spilled []int) Report {
	var r Report
	if len(offsets) != len(p.Buffers) {
		r.add(KindCount, -1, -1, "%d offsets for %d buffers", len(offsets), len(p.Buffers))
		return r
	}
	isSpilled := make([]bool, len(p.Buffers))
	for _, i := range spilled {
		if i >= 0 && i < len(isSpilled) {
			isSpilled[i] = true
		}
	}

	// Per-buffer checks by direct arithmetic.
	for i, b := range p.Buffers {
		off := offsets[i]
		if isSpilled[i] {
			if off >= 0 {
				r.add(KindSpillPlan, i, -1, "spilled buffer has on-chip offset %d", off)
			}
			continue
		}
		switch {
		case off < 0:
			r.add(KindUnassigned, i, -1, "offset %d", off)
		case off+b.Size > p.Memory:
			r.add(KindBounds, i, -1, "offset %d + size %d > memory %d", off, b.Size, p.Memory)
		}
		if off >= 0 && b.Align > 1 && off%b.Align != 0 {
			r.add(KindAlignment, i, -1, "offset %d not a multiple of %d", off, b.Align)
		}
	}

	// Lifetime-conflict sweep over elementary intervals: compress the time
	// axis to the distinct start/end coordinates, and within every
	// elementary interval sort the live buffers by address — in sorted
	// order, any spatial overlap implies an overlap between some adjacent
	// pair, so the adjacent check is complete. This is a different
	// algorithm (and different code) from the event sweep in
	// buffers.Solution.Validate, which is the point: the two validators
	// share no failure mode.
	type placed struct {
		idx int
		off int64
		end int64 // off + size
	}
	times := make([]int64, 0, 2*len(p.Buffers))
	for i, b := range p.Buffers {
		if isSpilled[i] || offsets[i] < 0 {
			continue
		}
		times = append(times, b.Start, b.End)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	times = dedupInt64(times)
	reported := make(map[[2]int]bool)
	for t := 0; t+1 < len(times); t++ {
		lo := times[t]
		var live []placed
		for i, b := range p.Buffers {
			if isSpilled[i] || offsets[i] < 0 {
				continue
			}
			if b.Start <= lo && lo < b.End {
				live = append(live, placed{idx: i, off: offsets[i], end: offsets[i] + b.Size})
			}
		}
		sort.Slice(live, func(a, b int) bool {
			if live[a].off != live[b].off {
				return live[a].off < live[b].off
			}
			return live[a].idx < live[b].idx
		})
		for k := 0; k+1 < len(live); k++ {
			a, b := live[k], live[k+1]
			if b.off < a.end {
				lo2, hi := a.idx, b.idx
				if lo2 > hi {
					lo2, hi = hi, lo2
				}
				if !reported[[2]int{lo2, hi}] {
					reported[[2]int{lo2, hi}] = true
					r.add(KindConflict, lo2, hi,
						"live together at t=%d, addresses [%d,%d) and [%d,%d)",
						lo, a.off, a.end, b.off, b.end)
				}
			}
		}
	}
	return r
}

// LowerBound independently recomputes the contention peak — the summed
// sizes of live buffers maximised over time — with a running-sum event
// sweep that shares nothing with buffers.Contention's profile builder. It
// is the unconditional lower bound any packing evidence is checked against.
func LowerBound(p telamalloc.Problem) int64 {
	type ev struct {
		t     int64
		delta int64
	}
	evs := make([]ev, 0, 2*len(p.Buffers))
	for _, b := range p.Buffers {
		evs = append(evs, ev{b.Start, b.Size}, ev{b.End, -b.Size})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		// Frees before allocations at the same instant: End is exclusive.
		return evs[a].delta < evs[b].delta
	})
	var cur, peak int64
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// AlignSlotBound independently recomputes the alignment-slot lower bound
// (DESIGN.md §8): for every alignment value A > 1 of the problem and every
// time, A times the A-slots the live buffers aligned to a multiple of A
// cover, less the largest slack one of them leaves in its last slot. It
// walks time points in order, keeping the live set in a map and summing it
// afresh at each point, sharing nothing with buffers.AlignSlotBound's heaps.
// 0 when no buffer has an alignment above one.
func AlignSlotBound(p telamalloc.Problem) int64 {
	aligns := map[int64]bool{}
	times := map[int64]bool{}
	for _, b := range p.Buffers {
		if b.Align > 1 {
			aligns[b.Align] = true
			times[b.Start], times[b.End] = true, true
		}
	}
	starting, ending := map[int64][]int{}, map[int64][]int{}
	for i, b := range p.Buffers {
		if b.Align > 1 {
			starting[b.Start] = append(starting[b.Start], i)
			ending[b.End] = append(ending[b.End], i)
		}
	}
	order := make([]int64, 0, len(times))
	for t := range times {
		order = append(order, t)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	live := map[int]bool{}
	var bound int64
	for _, t := range order {
		// The live set on [t, next time point): End is exclusive.
		for _, i := range ending[t] {
			delete(live, i)
		}
		for _, i := range starting[t] {
			live[i] = true
		}
		for a := range aligns {
			var slots, slack int64
			for i := range live {
				b := p.Buffers[i]
				if b.Align%a != 0 {
					continue
				}
				n := b.Size / a
				if b.Size%a != 0 {
					n++
				}
				slots += n * a
				if n*a-b.Size > slack {
					slack = n*a - b.Size
				}
			}
			if slots-slack > bound {
				bound = slots - slack
			}
		}
	}
	return bound
}

// PeakUsage independently recomputes the highest address a packing touches.
// Spilled buffers (offset < 0) are skipped.
func PeakUsage(p telamalloc.Problem, offsets []int64) int64 {
	var peak int64
	for i, b := range p.Buffers {
		if i < len(offsets) && offsets[i] >= 0 && offsets[i]+b.Size > peak {
			peak = offsets[i] + b.Size
		}
	}
	return peak
}

// Pipeline verifies a full PipelineResult against its problem: the packing
// (full or degraded), the internal consistency of the winner/degraded/spill
// fields, and the lower-bound evidence against an independent recomputation.
// perr is the error AllocatePipeline returned alongside the result.
func Pipeline(p telamalloc.Problem, res telamalloc.PipelineResult, perr error) Report {
	var r Report
	if lb := LowerBound(p); res.LowerBound != lb {
		r.add(KindEvidence, -1, -1, "reported lower bound %d, independent peak %d", res.LowerBound, lb)
	}
	if res.Memory != p.Memory {
		r.add(KindEvidence, -1, -1, "result memory %d, problem memory %d", res.Memory, p.Memory)
	}
	if res.SlotBound != 0 {
		if sb := AlignSlotBound(p); res.SlotBound != sb {
			r.add(KindEvidence, -1, -1, "reported alignment-slot bound %d, independent bound %d", res.SlotBound, sb)
		}
	}
	for _, st := range res.Stages {
		if st.Stage == telamalloc.StageSearch && st.Skipped && strings.HasPrefix(st.SkipReason, "provably infeasible") &&
			res.LowerBound <= p.Memory && res.SlotBound <= p.Memory {
			r.add(KindEvidence, -1, -1, "search skipped as provably infeasible, but lower bound %d and alignment-slot bound %d fit memory %d",
				res.LowerBound, res.SlotBound, p.Memory)
		}
	}
	if perr != nil {
		if res.Winner != "" || len(res.Solution.Offsets) != 0 {
			r.add(KindOutcome, -1, -1, "error %q alongside a solution from %q", perr, res.Winner)
		}
		return r
	}
	if res.Winner == "" {
		r.add(KindOutcome, -1, -1, "nil error but no winning stage")
	}
	if res.Degraded {
		if res.Spill == nil || len(res.Spill.Spilled) == 0 {
			r.add(KindOutcome, -1, -1, "degraded result without a non-empty spill plan")
			return r
		}
		sub := Degraded(p, res.Solution.Offsets, res.Spill.Spilled, nil, res.Spill.SpillCost)
		r.Violations = append(r.Violations, sub.Violations...)
		return r
	}
	if res.Spill != nil && len(res.Spill.Spilled) > 0 {
		r.add(KindOutcome, -1, -1, "non-degraded result lists %d spilled buffers", len(res.Spill.Spilled))
	}
	sub := Solution(p, res.Solution.Offsets)
	r.Violations = append(r.Violations, sub.Violations...)
	return r
}

func dedupInt64(xs []int64) []int64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

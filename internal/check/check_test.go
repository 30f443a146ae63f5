package check_test

import (
	"strings"
	"testing"

	"telamalloc"
	"telamalloc/internal/check"
	"telamalloc/internal/workload"
)

// two-buffer conflict fixture: both live over [0,4), memory 10.
func conflictPair() telamalloc.Problem {
	return telamalloc.Problem{
		Memory: 10,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 4, Size: 4},
			{Start: 0, End: 4, Size: 4},
		},
	}
}

func hasKind(r check.Report, k check.Kind) bool {
	for _, v := range r.Violations {
		if v.Kind == k {
			return true
		}
	}
	return false
}

func TestSolutionAcceptsValidPacking(t *testing.T) {
	p := conflictPair()
	if rep := check.Solution(p, []int64{0, 4}); !rep.OK() {
		t.Fatalf("valid packing rejected: %v", rep.Err())
	}
}

func TestSolutionRejections(t *testing.T) {
	p := conflictPair()
	cases := []struct {
		name    string
		problem telamalloc.Problem
		offsets []int64
		kind    check.Kind
	}{
		{"count", p, []int64{0}, check.KindCount},
		{"unassigned", p, []int64{0, -1}, check.KindUnassigned},
		{"bounds", p, []int64{0, 7}, check.KindBounds},
		{"overlap-exact", p, []int64{2, 2}, check.KindConflict},
		{"overlap-partial", p, []int64{0, 3}, check.KindConflict},
		{
			"misaligned",
			telamalloc.Problem{Memory: 16, Buffers: []telamalloc.Buffer{{Start: 0, End: 1, Size: 2, Align: 8}}},
			[]int64{3},
			check.KindAlignment,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := check.Solution(tc.problem, tc.offsets)
			if rep.OK() {
				t.Fatalf("accepted a broken packing")
			}
			if !hasKind(rep, tc.kind) {
				t.Fatalf("wanted a %s violation, got %v", tc.kind, rep.Err())
			}
		})
	}
}

// Temporal disjointness: same addresses are fine when live ranges do not
// intersect, including the shared-endpoint case (End is exclusive).
func TestSolutionTemporalDisjointness(t *testing.T) {
	p := telamalloc.Problem{
		Memory: 4,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 2, Size: 4},
			{Start: 2, End: 4, Size: 4},
		},
	}
	if rep := check.Solution(p, []int64{0, 0}); !rep.OK() {
		t.Fatalf("address reuse across disjoint lifetimes rejected: %v", rep.Err())
	}
}

// The sweep must catch conflicts that exist only in a sub-interval of both
// lifetimes (a buffer bridging two otherwise-disjoint groups).
func TestSolutionBridgedConflict(t *testing.T) {
	p := telamalloc.Problem{
		Memory: 8,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 2, Size: 4},
			{Start: 3, End: 5, Size: 4},
			{Start: 1, End: 4, Size: 4}, // bridges both
		},
	}
	if rep := check.Solution(p, []int64{0, 0, 4}); !rep.OK() {
		t.Fatalf("valid bridged packing rejected: %v", rep.Err())
	}
	rep := check.Solution(p, []int64{0, 4, 4})
	if !hasKind(rep, check.KindConflict) {
		t.Fatalf("missed the bridged conflict: %v", rep.Err())
	}
}

func TestDegradedSpillPlanChecks(t *testing.T) {
	p := conflictPair()
	// Spilling buffer 1 makes the rest valid; cost defaults to its size.
	if rep := check.Degraded(p, []int64{0, -1}, []int{1}, nil, 4); !rep.OK() {
		t.Fatalf("valid degraded packing rejected: %v", rep.Err())
	}
	cases := []struct {
		name      string
		offsets   []int64
		spilled   []int
		cost      int64
		wantWords string
	}{
		{"spilled-but-assigned", []int64{0, 4}, []int{1}, 4, "on-chip offset"},
		{"unlisted-minus-one", []int64{-1, -1}, []int{1}, 4, "not in the spill plan"},
		{"out-of-range-index", []int64{0, -1}, []int{7}, 4, "out of range"},
		{"duplicate-index", []int64{0, -1}, []int{1, 1}, 4, "listed twice"},
		{"wrong-cost", []int64{0, -1}, []int{1}, 3, "independent sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := check.Degraded(p, tc.offsets, tc.spilled, nil, tc.cost)
			if rep.OK() {
				t.Fatal("accepted an inconsistent spill plan")
			}
			if err := rep.Err(); !strings.Contains(err.Error(), tc.wantWords) {
				t.Fatalf("error %q does not mention %q", err, tc.wantWords)
			}
		})
	}
	// Explicit weights override sizes in the cost sum.
	if rep := check.Degraded(p, []int64{0, -1}, []int{1}, []int64{9, 7}, 7); !rep.OK() {
		t.Fatalf("weighted cost rejected: %v", rep.Err())
	}
}

func TestLowerBoundAndPeakUsage(t *testing.T) {
	p := telamalloc.Problem{
		Memory: 100,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 3, Size: 10},
			{Start: 2, End: 5, Size: 20}, // overlaps the first only at t=2
			{Start: 5, End: 6, Size: 25}, // alone
		},
	}
	if lb := check.LowerBound(p); lb != 30 {
		t.Fatalf("lower bound %d, want 30", lb)
	}
	if pu := check.PeakUsage(p, []int64{0, 10, 0}); pu != 30 {
		t.Fatalf("peak usage %d, want 30", pu)
	}
	// End-exclusive touch must not count as contention.
	q := telamalloc.Problem{
		Memory: 100,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 2, Size: 10},
			{Start: 2, End: 4, Size: 15},
		},
	}
	if lb := check.LowerBound(q); lb != 15 {
		t.Fatalf("touching lifetimes: lower bound %d, want 15", lb)
	}
}

// The checker and the production validator must agree on generated
// workloads — agreement of two independent implementations is the property
// the differential subsystem rests on.
func TestCheckerAgreesWithProductionValidator(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for _, fam := range check.DefaultFamilies() {
			p := fam.Generate(seed)
			sol, _, err := telamalloc.Allocate(p, telamalloc.WithMaxSteps(40_000))
			if err != nil {
				continue
			}
			if verr := sol.Validate(p); verr != nil {
				t.Fatalf("%s seed %d: production validator rejected Allocate's packing: %v",
					p.Name, seed, verr)
			}
			if rep := check.Solution(p, sol.Offsets); !rep.OK() {
				t.Fatalf("%s seed %d: independent checker rejected a packing the production validator accepts: %v",
					p.Name, seed, rep.Err())
			}
		}
	}
}

func TestPipelineReportChecks(t *testing.T) {
	p := conflictPair()
	res, err := telamalloc.AllocatePipeline(p)
	if err != nil {
		t.Fatalf("pipeline failed on a feasible pair: %v", err)
	}
	if rep := check.Pipeline(p, res, err); !rep.OK() {
		t.Fatalf("clean pipeline result rejected: %v", rep.Err())
	}
	// Tamper with the evidence: the checker must notice a lower bound that
	// does not match its own recomputation.
	res.LowerBound++
	rep := check.Pipeline(p, res, err)
	if !hasKind(rep, check.KindEvidence) {
		t.Fatalf("tampered lower bound accepted: %v", rep.Err())
	}
	// A degraded flag without a spill plan is an outcome inconsistency.
	res.LowerBound--
	res.Degraded = true
	res.Spill = nil
	if rep := check.Pipeline(p, res, err); !hasKind(rep, check.KindOutcome) {
		t.Fatalf("degraded-without-plan accepted: %v", rep.Err())
	}
}

// TestAlignSlotBound pins the bound on a hand-computed instance. Over
// [2,4) three buffers aligned to multiples of 8 take 2, 1 and 1 slots of 8
// bytes, and the topmost may end at most 6 bytes short of its last slot's
// end (the size-10 one wastes 6), so 8·4 − 6 = 26 bytes: above the
// contention peak of 10+7+8 = 25. Over [4,6) align 4 covers the size-8
// and size-3 buffers, 4·3 − 1 = 11; the unaligned buffer never counts.
func TestAlignSlotBound(t *testing.T) {
	p := telamalloc.Problem{Memory: 40, Buffers: []telamalloc.Buffer{
		{Start: 0, End: 4, Size: 10, Align: 8},
		{Start: 1, End: 4, Size: 7, Align: 8},
		{Start: 2, End: 6, Size: 8, Align: 16},
		{Start: 4, End: 6, Size: 3, Align: 4},
		{Start: 4, End: 6, Size: 5},
	}}
	if got := check.AlignSlotBound(p); got != 26 {
		t.Errorf("AlignSlotBound = %d, want 26", got)
	}
	if got := check.LowerBound(p); got != 25 {
		t.Errorf("LowerBound = %d, want 25", got)
	}
	p.Buffers = p.Buffers[4:]
	if got := check.AlignSlotBound(p); got != 0 {
		t.Errorf("AlignSlotBound without aligned buffers = %d, want 0", got)
	}
}

// TestPipelineSlotBoundEvidence: alignment-hostile-40/s1 fits under its
// contention peak but not under its alignment-slot bound, so the search is
// skipped as provably infeasible with the bound as evidence. The checker
// rejects a tampered bound, and a skipped search no bound backs.
func TestPipelineSlotBoundEvidence(t *testing.T) {
	q := workload.AlignmentHostile(40, 1)
	p := telamalloc.Problem{Memory: q.Memory}
	for _, b := range q.Buffers {
		p.Buffers = append(p.Buffers, telamalloc.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align})
	}
	res, err := telamalloc.AllocatePipeline(p, telamalloc.WithMaxSteps(20000), telamalloc.WithParallelism(1))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if res.LowerBound > p.Memory || res.SlotBound <= p.Memory {
		t.Fatalf("lower bound %d, slot bound %d, memory %d: want only the slot bound above memory",
			res.LowerBound, res.SlotBound, p.Memory)
	}
	for _, st := range res.Stages {
		if st.Stage == telamalloc.StageSearch && !st.Skipped {
			t.Errorf("search ran (%v) although the slot bound proves it futile", st.Err)
		}
	}
	if rep := check.Pipeline(p, res, err); !rep.OK() {
		t.Fatalf("clean result rejected: %v", rep.Err())
	}
	res.SlotBound++
	if rep := check.Pipeline(p, res, err); !hasKind(rep, check.KindEvidence) {
		t.Errorf("tampered slot bound accepted: %v", rep.Err())
	}
	res.SlotBound = 0
	if rep := check.Pipeline(p, res, err); !hasKind(rep, check.KindEvidence) {
		t.Errorf("search skipped without evidence accepted: %v", rep.Err())
	}
}

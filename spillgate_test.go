package telamalloc_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/check"
	"telamalloc/internal/obs"
	"telamalloc/internal/workload"
)

// spillTightCorpus builds the spill-tight benchmark's 17 problems the way
// the benchmark does: each proxy model (the paper's set plus MobileNet-Large
// and Transformer-24L) at seed 1 with memory at 95% or 90% of its lower
// bound, then alignment-hostile-40 at seeds 1-3, which fit under their
// contention peaks but not under their alignment-slot bounds.
func spillTightCorpus() []telamalloc.Problem {
	models := append([]workload.Model(nil), workload.Models...)
	for _, m := range workload.StressModels {
		if m.Name == "MobileNet-Large" || m.Name == "Transformer-24L" {
			models = append(models, m)
		}
	}
	var ps []telamalloc.Problem
	for i, m := range models {
		p := toPublic(m.Generate(1))
		p.Name = fmt.Sprintf("%s/s1@%d%%", m.Name, 95-5*(i%2))
		p.Memory = check.LowerBound(p) * int64(95-5*(i%2)) / 100
		ps = append(ps, p)
	}
	for s := int64(1); s <= 3; s++ {
		p := toPublic(workload.AlignmentHostile(40, s))
		p.Name = fmt.Sprintf("alignment-hostile-40/s%d", s)
		ps = append(ps, p)
	}
	return ps
}

func toPublic(q *buffers.Problem) telamalloc.Problem {
	p := telamalloc.Problem{Name: q.Name, Memory: q.Memory}
	for _, b := range q.Buffers {
		p.Buffers = append(p.Buffers, telamalloc.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align})
	}
	return p
}

// TestSpillGateWork: on the spill-tight corpus the planner searches once
// per problem, and only the retained set that packs; every other attempt
// is proven futile. The alignment-hostile search stages are skipped on the
// alignment-slot bound. Without the proofs the planner searches on all 62
// attempts and the ladder runs three futile 13,877-step searches.
func TestSpillGateWork(t *testing.T) {
	a, err := telamalloc.New(telamalloc.WithMaxSteps(20000), telamalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var attempts, searched int
	for _, p := range spillTightCorpus() {
		res, err := a.Pipeline(context.Background(), p)
		if err != nil || res.Spill == nil {
			t.Fatalf("%s: %v (winner %q), want a spill plan", p.Name, err, res.Winner)
		}
		if rep := check.Pipeline(p, res, err); !rep.OK() {
			t.Fatalf("%s: %v", p.Name, rep.Err())
		}
		attempts += res.Spill.Attempts
		searched += res.Spill.Searched
		if strings.HasPrefix(p.Name, "alignment-hostile") {
			for _, st := range res.Stages {
				if st.Stage == telamalloc.StageSearch && !(st.Skipped && strings.Contains(st.SkipReason, "alignment-slot bound")) {
					t.Errorf("%s: search stage %+v, want it skipped on the alignment-slot bound", p.Name, st)
				}
			}
		}
	}
	if searched != 17 || attempts != 62 {
		t.Errorf("%d attempts, %d searched; want 62 attempts, 17 searched", attempts, searched)
	}
}

// TestSpillReportsEffort: the spill stage reports the steps its searched
// attempts took, and the stage-steps metric sees them. FPN Model/s1 at 95%
// of its bound evicts two buffers: its first two retained sets exceed
// memory at their contention peaks, and only the third is searched.
func TestSpillReportsEffort(t *testing.T) {
	p := spillTightCorpus()[0]
	r := obs.NewRegistry()
	res, err := telamalloc.AllocatePipeline(p, telamalloc.WithMaxSteps(20000), telamalloc.WithParallelism(1),
		telamalloc.WithObservability(r))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spill.Attempts != 3 || res.Spill.Searched != 1 {
		t.Errorf("%s: %d attempts, %d searched; want 3 and 1", p.Name, res.Spill.Attempts, res.Spill.Searched)
	}
	st := res.Stages[len(res.Stages)-1]
	if st.Stage != telamalloc.StageSpill || st.Stats.Steps == 0 || st.Stats.Placements == 0 {
		t.Fatalf("spill report %+v, want the searched attempt's effort", st)
	}
	want := fmt.Sprintf(`telamalloc_stage_steps_total{stage="spill"} %d`, st.Stats.Steps)
	if text := scrape(r); !containsLine(text, want) {
		t.Errorf("scrape missing %q\n%s", want, text)
	}
}

// TestSpillSkipsOnlyASearchThatCannotSucceed: spill's first attempt repeats
// the search stage's search on the whole problem, so it is skipped when the
// search failed with a share at least as large as spill's, and run when
// spill's share is larger. The fixture is one component that the search
// packs in 30 steps, without backtracking.
func TestSpillSkipsOnlyASearchThatCannotSucceed(t *testing.T) {
	p := toPublic(workload.MultiComponent(1, 30, 105, 1))
	for _, tc := range []struct {
		name                string
		opts                []telamalloc.Option
		attempts, searched  int
		degraded, skipFirst bool
	}{
		// 27 steps for the search, the 13 left for spill.
		{"smaller share", []telamalloc.Option{telamalloc.WithMaxSteps(40)}, 0, 0, true, true},
		// 10 steps for the search, 90 for spill: attempt 1 packs.
		{"larger share", []telamalloc.Option{telamalloc.WithMaxSteps(100),
			telamalloc.WithStageShare(telamalloc.StageSearch, 1), telamalloc.WithStageShare(telamalloc.StageSpill, 9)},
			1, 1, false, false},
	} {
		opts := append([]telamalloc.Option{telamalloc.WithStages(telamalloc.StageSearch, telamalloc.StageSpill),
			telamalloc.WithParallelism(1)}, tc.opts...)
		res, err := telamalloc.AllocatePipeline(p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep := check.Pipeline(p, res, err); !rep.OK() {
			t.Fatalf("%s: %v", tc.name, rep.Err())
		}
		if search := res.Stages[0]; search.Err == nil || search.Skipped {
			t.Fatalf("%s: search stage %+v, want a budget failure", tc.name, search)
		}
		if res.Degraded != tc.degraded {
			t.Errorf("%s: degraded %v, want %v", tc.name, res.Degraded, tc.degraded)
		}
		if tc.skipFirst {
			// Every attempt after the first searches: no bound proves one
			// futile, since the whole problem already fits under both.
			if res.Spill.Searched != res.Spill.Attempts-1 {
				t.Errorf("%s: %d attempts, %d searched; want all but the first searched", tc.name, res.Spill.Attempts, res.Spill.Searched)
			}
		} else if res.Spill.Attempts != tc.attempts || res.Spill.Searched != tc.searched {
			t.Errorf("%s: %d attempts, %d searched; want %d and %d", tc.name, res.Spill.Attempts, res.Spill.Searched, tc.attempts, tc.searched)
		}
	}
}

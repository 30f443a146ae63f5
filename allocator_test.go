package telamalloc_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/obs"
)

func TestNewValidatesOptions(t *testing.T) {
	for name, opts := range map[string][]telamalloc.Option{
		"negative timeout":    {telamalloc.WithTimeout(-time.Second)},
		"negative steps":      {telamalloc.WithMaxSteps(-1)},
		"empty ladder":        {telamalloc.WithStages()},
		"unknown stage":       {telamalloc.WithStages("greedy", "oracle")},
		"duplicate stage":     {telamalloc.WithStages("greedy", "greedy")},
		"negative share":      {telamalloc.WithStageShare(telamalloc.StageSearch, -0.5)},
		"unknown share stage": {telamalloc.WithStageShare("oracle", 0.5)},
		"negative spill cap":  {telamalloc.WithMaxSpills(-1)},
	} {
		if _, err := telamalloc.New(opts...); !errors.Is(err, telamalloc.ErrInvalidProblem) {
			t.Errorf("%s: New err = %v, want ErrInvalidProblem", name, err)
		}
	}
	if _, err := telamalloc.New(); err != nil {
		t.Fatalf("zero-option New: %v", err)
	}
}

// TestDeadlinePrecedence pins how a call stops: whichever stop source has
// already fired when the solve first polls decides the sentinel —
// WithTimeout → ErrBudget; a done call context → ErrCancelled — and
// cancellation outranks the wall clock on ties because the search polls
// the context first.
func TestDeadlinePrecedence(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancelExpired()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()

	cases := []struct {
		name string
		ctx  context.Context
		opts []telamalloc.Option
		want error
	}{
		{"timeout only", context.Background(),
			[]telamalloc.Option{telamalloc.WithTimeout(time.Nanosecond)}, telamalloc.ErrBudget},
		{"call context cancelled", cancelled, nil, telamalloc.ErrCancelled},
		{"call context deadline passed", expired, nil, telamalloc.ErrCancelled},
		{"cancellation outranks expired timeout", cancelled,
			[]telamalloc.Option{telamalloc.WithTimeout(time.Nanosecond)}, telamalloc.ErrCancelled},
		{"timeout expires under live contexts", live,
			[]telamalloc.Option{telamalloc.WithTimeout(time.Nanosecond)}, telamalloc.ErrBudget},
	}
	p := figure1()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := telamalloc.New(tc.opts...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, _, err := a.Allocate(tc.ctx, p); !errors.Is(err, tc.want) {
				t.Errorf("Allocate err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestAllocatorHandleSolves(t *testing.T) {
	a, err := telamalloc.New(telamalloc.WithMaxSteps(200000))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := figure1()
	sol, stats, err := a.Allocate(context.Background(), p)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	if stats.Placements != int64(len(p.Buffers)) {
		t.Errorf("placements = %d, want %d", stats.Placements, len(p.Buffers))
	}
	res, err := a.Pipeline(context.Background(), p)
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatalf("invalid pipeline solution: %v", err)
	}
}

func TestAllocatorPerCallOptionsDoNotLeak(t *testing.T) {
	a, err := telamalloc.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := figure1()
	// A per-call bad option must fail that call only.
	if _, _, err := a.Allocate(context.Background(), p, telamalloc.WithMaxSteps(-1)); !errors.Is(err, telamalloc.ErrInvalidProblem) {
		t.Fatalf("per-call invalid option err = %v, want ErrInvalidProblem", err)
	}
	// A per-call stage share must not contaminate the handle's later calls.
	if _, err := a.Pipeline(context.Background(), p, telamalloc.WithStageShare(telamalloc.StageSearch, 0.9)); err != nil {
		t.Fatalf("Pipeline with per-call share: %v", err)
	}
	if _, _, err := a.Allocate(context.Background(), p); err != nil {
		t.Fatalf("handle damaged by per-call options: %v", err)
	}
}

func TestPipelineRecordsObservability(t *testing.T) {
	r := obs.NewRegistry()
	a, err := telamalloc.New(telamalloc.WithObservability(r))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := figure1()
	if _, _, err := a.Allocate(context.Background(), p); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	res, err := a.Pipeline(context.Background(), p)
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	text := scrape(r)
	for _, want := range []string{
		"telamalloc_pipeline_runs_total 1",
		`telamalloc_stage_outcomes_total{outcome="won",stage="` + res.Winner + `"} 1`,
		"telamalloc_solver_solves_total 1",
	} {
		if !containsLine(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
}

// scrape renders the registry in Prometheus text format.
func scrape(r *obs.Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// containsLine reports whether the exposition text has a line starting with
// the given prefix.
func containsLine(text, prefix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

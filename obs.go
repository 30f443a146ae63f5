package telamalloc

import (
	"sync"

	"telamalloc/internal/obs"
)

// Pipeline metric names (the naming contract is recorded in DESIGN.md §11).
// Stage series carry a {stage="greedy"|"best-fit"|"search"|"spill"} label;
// outcomes additionally carry {outcome="won"|"failed"|"skipped"}.
const (
	metricPipelineRuns    = "telamalloc_pipeline_runs_total"
	metricPipelineSpilled = "telamalloc_pipeline_spilled_buffers_total"
	metricStageSeconds    = "telamalloc_stage_seconds"
	metricStageSteps      = "telamalloc_stage_steps_total"
	metricStageBudget     = "telamalloc_stage_budget_steps_total"
	metricStageOutcomes   = "telamalloc_stage_outcomes_total"
)

// stageMetrics is one ladder stage's bound series.
type stageMetrics struct {
	seconds *obs.Histogram
	steps   *obs.Counter
	budget  *obs.Counter
	won     *obs.Counter
	failed  *obs.Counter
	skipped *obs.Counter
}

// pipelineMetrics is one registry's bound set of pipeline metric handles.
// Binding happens once per registry (per handle, in practice), so per-run
// cost is a few atomic adds per stage.
type pipelineMetrics struct {
	runs    *obs.Counter
	spilled *obs.Counter
	stages  map[string]*stageMetrics
}

var pipelineMetricsCache sync.Map // *obs.Registry -> *pipelineMetrics

// pipelineMetricsFor returns the bound handles for r (nil selects the
// process-global obs.Default registry).
func pipelineMetricsFor(r *obs.Registry) *pipelineMetrics {
	if r == nil {
		r = obs.Default()
	}
	if m, ok := pipelineMetricsCache.Load(r); ok {
		return m.(*pipelineMetrics)
	}
	m := &pipelineMetrics{
		runs:    r.Counter(metricPipelineRuns, "AllocatePipeline invocations"),
		spilled: r.Counter(metricPipelineSpilled, "buffers evicted by winning spill stages"),
		stages:  make(map[string]*stageMetrics, len(defaultLadder)),
	}
	for _, s := range defaultLadder {
		label := obs.Label{Key: "stage", Value: s}
		m.stages[s] = &stageMetrics{
			seconds: r.Histogram(metricStageSeconds, "wall-clock time per executed pipeline stage", label),
			steps:   r.Counter(metricStageSteps, "search steps consumed per pipeline stage", label),
			budget:  r.Counter(metricStageBudget, "step-budget share carved out per pipeline stage", label),
			won: r.Counter(metricStageOutcomes, "pipeline stage outcomes",
				label, obs.Label{Key: "outcome", Value: "won"}),
			failed: r.Counter(metricStageOutcomes, "pipeline stage outcomes",
				label, obs.Label{Key: "outcome", Value: "failed"}),
			skipped: r.Counter(metricStageOutcomes, "pipeline stage outcomes",
				label, obs.Label{Key: "outcome", Value: "skipped"}),
		}
	}
	actual, _ := pipelineMetricsCache.LoadOrStore(r, m)
	return actual.(*pipelineMetrics)
}

package core

import (
	"sync"
	"time"

	"telamalloc/internal/obs"
	"telamalloc/internal/telamon"
)

// Solver metric names (the naming contract is recorded in DESIGN.md §11).
// Effort counters are exact once a solve returns; the steps counter is
// additionally live during a solve, fed on the search's budget-poll stride
// so a scrape can watch a long search make progress.
const (
	metricSolves      = "telamalloc_solver_solves_total"
	metricSteps       = "telamalloc_solver_steps_total"
	metricBacktracks  = "telamalloc_solver_backtracks_total"
	metricSubproblems = "telamalloc_solver_subproblems_total"
	metricResults     = "telamalloc_solver_results_total"
	metricStepsHist   = "telamalloc_solver_steps_per_solve"
	metricFanout      = "telamalloc_solver_subproblem_fanout"
	metricSeconds     = "telamalloc_solver_seconds"
)

// solverMetrics is one registry's bound set of solver metric handles:
// binding happens once per registry, not once per solve, so the per-solve
// cost is a handful of atomic adds.
type solverMetrics struct {
	solves      *obs.Counter
	steps       *obs.Counter
	backtracks  *obs.Counter
	subproblems *obs.Counter
	results     map[telamon.Status]*obs.Counter
	stepsHist   *obs.Histogram
	fanout      *obs.Histogram
	seconds     *obs.Histogram
}

var solverMetricsCache sync.Map // *obs.Registry -> *solverMetrics

// solverMetricsFor returns the bound handles for r (nil selects the
// process-global obs.Default registry).
func solverMetricsFor(r *obs.Registry) *solverMetrics {
	if r == nil {
		r = obs.Default()
	}
	if m, ok := solverMetricsCache.Load(r); ok {
		return m.(*solverMetrics)
	}
	m := &solverMetrics{
		solves:      r.Counter(metricSolves, "completed core.Solve calls"),
		steps:       r.Counter(metricSteps, "placement attempts across all searches, sampled on the solver's budget-poll stride"),
		backtracks:  r.Counter(metricBacktracks, "minor plus major backtracks across all searches"),
		subproblems: r.Counter(metricSubproblems, "independent subproblem components searched"),
		results:     make(map[telamon.Status]*obs.Counter),
		stepsHist:   r.Histogram(metricStepsHist, "placement attempts per core.Solve call"),
		fanout:      r.Histogram(metricFanout, "independent subproblem components per core.Solve call"),
		seconds:     r.Histogram(metricSeconds, "wall-clock time per core.Solve call"),
	}
	for _, st := range []telamon.Status{
		telamon.Solved, telamon.Exhausted, telamon.Budget,
		telamon.Cancelled, telamon.Invalid, telamon.Internal,
	} {
		m.results[st] = r.Counter(metricResults, "core.Solve outcomes by status",
			obs.Label{Key: "status", Value: st.String()})
	}
	actual, _ := solverMetricsCache.LoadOrStore(r, m)
	return actual.(*solverMetrics)
}

// sampler returns the stride-sampling callback handed to the framework: an
// atomic add on the shared steps counter. One closure per Solve, shared by
// its components; nothing allocates inside the search loop.
func (m *solverMetrics) sampler() func(int64) {
	steps := m.steps
	return func(d int64) { steps.Add(d) }
}

// record folds one finished solve into the registry.
func (m *solverMetrics) record(res Result, elapsed time.Duration) {
	m.solves.Inc()
	if c, ok := m.results[res.Status]; ok {
		c.Inc()
	}
	m.backtracks.Add(res.Stats.Backtracks())
	m.subproblems.Add(int64(res.Subproblems))
	m.stepsHist.Observe(float64(res.Stats.Steps))
	m.fanout.Observe(float64(res.Subproblems))
	m.seconds.ObserveDuration(elapsed.Nanoseconds())
}

package main

import (
	"encoding/json"
	"fmt"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json records; the harness test checks they agree.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a compiler or a model-loading fleet sees. Every
// workload reports all of them from an untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"requests_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"onchip_bytes_frac", "fraction"},
	{"peak_over_lb", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run. A layer a workload does not
// exercise reports 0: the library workloads have no client, server or
// service cache, and the daemon's CP, buffers and spill-attempt counters are
// not visible from outside its process.
var perLayerMetrics = []metricDef{
	{"client.overhead_ms_p50", "ms"},
	{"client.generator_late_ms_max", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p99", "ms"},
	{"server.service_ms_p50", "ms"},
	{"server.service_ms_p99", "ms"},
	{"server.busy_frac", "fraction"},
	{"server.request_self_us_p50", "us"},
	{"server.shed", "count"},
	{"server.expired", "count"},
	{"cache.hit_frac", "fraction"},
	{"cache.near_hit_frac", "fraction"},
	{"cache.dedup_shared_frac", "fraction"},
	{"cache.hint_replay_frac", "fraction"},
	{"cache.lookup_us_p50", "us"},
	{"cache.canonicalize_us_p50", "us"},
	{"pipeline.overhead_us_p50", "us"},
	{"pipeline.greedy.ms_per_request", "ms"},
	{"pipeline.best-fit.ms_per_request", "ms"},
	{"pipeline.search.ms_per_request", "ms"},
	{"pipeline.spill.ms_per_request", "ms"},
	{"pipeline.greedy.win_frac", "fraction"},
	{"pipeline.best-fit.win_frac", "fraction"},
	{"pipeline.search.win_frac", "fraction"},
	{"pipeline.spill.win_frac", "fraction"},
	{"pipeline.search.budget_used_frac", "fraction"},
	{"core.steps_per_request", "count"},
	{"core.us_per_step", "us"},
	{"core.backtracks_per_request", "count"},
	{"cp.pairs_per_request", "count"},
	{"cp.model_build_us_per_request", "us"},
	{"cp.pair_wakeups_per_step", "count"},
	{"cp.propagations_per_step", "count"},
	{"cp.conflicts_per_request", "count"},
	{"buffers.overlap_sweep_us_per_request", "us"},
	{"buffers.contention_us_p50", "us"},
	{"spill.attempts_per_request", "count"},
	{"spill.evicted_per_request", "count"},
	{"runtime.allocs_per_request", "count"},
	{"runtime.bytes_per_request", "B"},
	{"runtime.gc_pause_us_per_request", "us"},
	{"trace.overhead_frac", "fraction"},
	{"trace.self_time_coverage", "fraction"},
}

// stages is the default ladder, in order.
var stages = []string{"greedy", "best-fit", "search", "spill"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. A child process prints it as one JSON line;
// the parent prints it again as the record line compare mode reads.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info carries what a reader needs to trust the numbers: digests, pass
	// and sample counts, the tail percentile and how many samples lie
	// beyond it.
	Info map[string]any `json:"info,omitempty"`
	// Errors lists the first correctness failures.
	Errors []string `json:"errors,omitempty"`
}

const maxErrors = 20

// newResult starts a result with every metric of the run's kind at 0, so
// each one is always reported.
func newResult(workload string, seed int64, trace bool) *result {
	r := &result{Workload: workload, Seed: seed, Trace: trace, Correct: true,
		Metrics: make(map[string]metric), Info: make(map[string]any)}
	for _, d := range r.defs() {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// set records a metric of the run's kind; any other name is a harness bug.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic(fmt.Sprintf("telabench: metric %q is not a %s metric", name, map[bool]string{true: "per-layer", false: "end-to-end"}[r.Trace]))
	}
	m.Value = v
	r.Metrics[name] = m
}

// fail marks the run incorrect.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// checkCorpus verifies the corpus digest against the pinned one. Smoke
// corpora are not pinned.
func (r *result) checkCorpus(digest string, smoke bool) {
	r.Info["corpus_sha256"] = digest
	if smoke {
		return
	}
	if want := pinnedCorpus[r.Workload]; digest != want {
		r.fail("corpus digest %s, pinned %s: the generated inputs changed", digest, want)
	}
}

// summary is the object the contract's last output line carries.
func (r *result) summary() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

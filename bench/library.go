package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"telamalloc"
	"telamalloc/internal/check"
	"telamalloc/internal/obs"
)

// A library run times set-up in setupBatches batches of setupBatch fresh
// handles, each making its first call; setup_s is the median batch's time
// per handle. One set-up takes microseconds, too little to time alone.
const (
	setupBatches = 21
	setupBatch   = 50
)

// trivialProblem is the first call a fresh handle or daemon answers.
var trivialProblem = telamalloc.Problem{Name: "setup", Memory: 8, Buffers: []telamalloc.Buffer{
	{Start: 0, End: 4, Size: 4}, {Start: 0, End: 4, Size: 4},
}}

// libCall is one timed Allocator.Pipeline call.
type libCall struct {
	res   telamalloc.PipelineResult
	err   error
	start time.Time
	dur   time.Duration
}

// libRunner holds the two handles a library workload calls through, the
// default ladder and the search stage alone, and the run's speed log.
type libRunner struct {
	ladder, search *telamalloc.Allocator
	speed          speedLog
}

// libOptions are the options every library call runs under: the workload's
// step pot, no wall-clock budget (so answers never depend on timing), and
// one search worker, so failed searches stop at the same step every run.
func libOptions(maxSteps int64) []telamalloc.Option {
	return []telamalloc.Option{telamalloc.WithMaxSteps(maxSteps), telamalloc.WithParallelism(1)}
}

func newLibRunner(maxSteps int64) (*libRunner, error) {
	ladder, err := telamalloc.New(libOptions(maxSteps)...)
	if err != nil {
		return nil, err
	}
	search, err := telamalloc.New(append(libOptions(maxSteps), telamalloc.WithStages(telamalloc.StageSearch))...)
	if err != nil {
		return nil, err
	}
	return &libRunner{ladder: ladder, search: search}, nil
}

// pass runs every job once, in order, and returns the calls indexed like
// jobs. The reference loop runs between calls when due, and once after the
// last.
func (lr *libRunner) pass(jobs []libJob, order []int) []libCall {
	calls := make([]libCall, len(jobs))
	for _, i := range order {
		lr.speed.due()
		a := lr.ladder
		if jobs[i].searchOnly {
			a = lr.search
		}
		start := time.Now()
		res, err := a.Pipeline(context.Background(), jobs[i].problem)
		calls[i] = libCall{res: res, err: err, start: start, dur: time.Since(start)}
	}
	lr.speed.sample()
	return calls
}

// scaled is c's call time at reference speed.
func (lr *libRunner) scaled(c libCall) time.Duration {
	return lr.speed.scale(c.dur, c.start, c.start.Add(c.dur))
}

// scaledTotal is the calls' summed time at reference speed, in seconds.
func (lr *libRunner) scaledTotal(calls []libCall) float64 {
	var t time.Duration
	for _, c := range calls {
		t += lr.scaled(c)
	}
	return t.Seconds()
}

// answerKey is the part of a call's result the checker judges.
type answerKey struct {
	winner                        string
	degraded                      bool
	lowerBound, memory, spillCost int64
	offsets                       []int64
	spilled                       []int
	err                           string
}

func answerKeyOf(c libCall) answerKey {
	v := answerKey{winner: c.res.Winner, degraded: c.res.Degraded, lowerBound: c.res.LowerBound,
		memory: c.res.Memory, offsets: c.res.Solution.Offsets}
	if c.res.Spill != nil {
		v.spilled, v.spillCost = c.res.Spill.Spilled, c.res.Spill.SpillCost
	}
	if c.err != nil {
		v.err = c.err.Error()
	}
	return v
}

func (v answerKey) equal(o answerKey) bool {
	return v.winner == o.winner && v.degraded == o.degraded && v.lowerBound == o.lowerBound &&
		v.memory == o.memory && v.spillCost == o.spillCost && v.err == o.err &&
		slices.Equal(v.offsets, o.offsets) && slices.Equal(v.spilled, o.spilled)
}

// verifier checks every library call with the independent checker and
// counts it. The library is deterministic under the benchmark's options, so
// each pass usually repeats the previous pass's answers; an answer equal to
// one the checker already accepted for the same problem is accepted without
// running the checker again, which keeps checking from eating the run.
type verifier struct {
	r        *result
	jobs     []libJob
	accepted []*answerKey
}

func newVerifier(r *result, jobs []libJob) *verifier {
	return &verifier{r: r, jobs: jobs, accepted: make([]*answerKey, len(jobs))}
}

func (v *verifier) check(calls []libCall) {
	r := v.r
	for i, c := range calls {
		r.Attempted++
		if c.err != nil {
			r.Failed++
			if len(r.Errors) < maxErrors {
				r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", v.jobs[i].problem.Name, c.err))
			}
		}
		got := answerKeyOf(c)
		if v.accepted[i] != nil && v.accepted[i].equal(got) {
			continue
		}
		if rep := check.Pipeline(v.jobs[i].problem, c.res, c.err); !rep.OK() {
			if c.err == nil {
				r.Failed++
			}
			r.fail("%s: %v", v.jobs[i].problem.Name, rep.Err())
			continue
		}
		v.accepted[i] = &got
	}
}

// answer is one packing (or failure) to score.
type answer struct {
	problem telamalloc.Problem
	offsets []int64
	ok      bool
}

// packingQuality returns the share of requested bytes placed on-chip (a
// failed request places none) and the geometric mean, over answered
// requests, of the highest address used over the lower bound of the buffers
// kept on-chip.
func packingQuality(as []answer) (onchip, peakOverLB float64) {
	var total, placed float64
	var ratios []float64
	for _, a := range as {
		kept := telamalloc.Problem{Memory: a.problem.Memory}
		for i, b := range a.problem.Buffers {
			total += float64(b.Size)
			if a.ok && a.offsets[i] >= 0 {
				placed += float64(b.Size)
				kept.Buffers = append(kept.Buffers, b)
			}
		}
		if lb := check.LowerBound(kept); a.ok && lb > 0 {
			ratios = append(ratios, float64(check.PeakUsage(a.problem, a.offsets))/float64(lb))
		}
	}
	return ratio(placed, total), geomean(ratios)
}

func libAnswers(jobs []libJob, calls []libCall) []answer {
	as := make([]answer, len(jobs))
	for i, c := range calls {
		as[i] = answer{problem: jobs[i].problem, offsets: c.res.Solution.Offsets, ok: c.err == nil}
	}
	return as
}

// librarySetup times building a handle and its first checked call, per
// batch, raw and at reference speed.
func librarySetup(maxSteps int64, speed *speedLog) (raw, scaled []float64, err error) {
	for i := 0; i < setupBatches; i++ {
		speed.sample()
		start := time.Now()
		for k := 0; k < setupBatch; k++ {
			a, err := telamalloc.New(libOptions(maxSteps)...)
			if err != nil {
				return nil, nil, err
			}
			res, err := a.Pipeline(context.Background(), trivialProblem)
			if rep := check.Pipeline(trivialProblem, res, err); err != nil || !rep.OK() {
				return nil, nil, fmt.Errorf("setup call: %v %v", err, rep.Err())
			}
		}
		end := time.Now()
		d := end.Sub(start)
		speed.sample()
		raw = append(raw, secs(d)/setupBatch)
		scaled = append(scaled, secs(speed.scale(d, start, end))/setupBatch)
	}
	return raw, scaled, nil
}

// medianRate is one caller's rate when each problem takes its median time.
func medianRate(perProblem [][]float64) float64 {
	var total float64
	for _, ds := range perProblem {
		total += median(ds)
	}
	return float64(len(perProblem)) / total
}

// runLibrary is a library workload: one caller in a closed loop over the
// corpus, a warm pass, then passes until the run length is spent.
func runLibrary(cfg runConfig) (*result, error) {
	corpus, err := libraryCorpus(cfg.workload, cfg.smoke)
	if err != nil {
		return nil, err
	}
	r := newResult(cfg.workload, cfg.seed, cfg.trace)
	digest := corpus.digest()
	r.checkCorpus(digest, cfg.smoke)
	n := len(corpus.jobs)
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(n)
	r.Info["stream_sha256"] = streamDigest(digest, order, false)
	r.Info["problems"] = n

	runner, err := newLibRunner(corpus.maxSteps)
	if err != nil {
		return nil, err
	}
	v := newVerifier(r, corpus.jobs)
	if cfg.trace {
		return r, traceLibrary(cfg, r, v, runner, rng, order)
	}
	// Generating the corpus leaves garbage behind; collect it so the
	// collector's background work does not land inside the set-up timings.
	runtime.GC()
	rawSetup, setup, err := librarySetup(corpus.maxSteps, &runner.speed)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", median(setup))
	r.Info["raw_setup_s"] = median(rawSetup)

	warm := runner.pass(corpus.jobs, order)
	v.check(warm)

	// Passes run for the run length, and on past it (up to half as long
	// again) while the tail percentile still has fewer than ten samples
	// beyond it.
	var lat, rawLat []float64
	perProblem, rawPerProblem := make([][]float64, n), make([][]float64, n)
	var first []libCall
	pct := tailPercentile[cfg.workload]
	runFor := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(begin) < runFor ||
		(tailRule(len(lat)) < pct && time.Since(begin) < runFor*3/2); passes++ {
		calls := runner.pass(corpus.jobs, rng.Perm(n))
		v.check(calls)
		for i, c := range calls {
			d := runner.scaled(c)
			lat = append(lat, ms(d))
			rawLat = append(rawLat, ms(c.dur))
			perProblem[i] = append(perProblem[i], secs(d))
			rawPerProblem[i] = append(rawPerProblem[i], secs(c.dur))
		}
		if first == nil {
			first = calls
		}
	}
	// Throughput is one caller's rate at each problem's median call time:
	// a burst of interference on the shared machine moves one sample of a
	// problem, not the rate.
	r.set("requests_per_s", medianRate(perProblem))
	r.Info["raw_requests_per_s"] = medianRate(rawPerProblem)
	r.set("latency_p50_ms", percentile(lat, 50))
	r.set("latency_tail_ms", percentile(lat, pct))
	r.Info["raw_latency_p50_ms"] = percentile(rawLat, 50)
	r.Info["raw_latency_tail_ms"] = percentile(rawLat, pct)
	r.Info["speed_factor"] = runner.speed.medianFactor()
	onchip, pol := packingQuality(libAnswers(corpus.jobs, first))
	r.set("onchip_bytes_frac", onchip)
	r.set("peak_over_lb", pol)
	r.Info["passes"] = passes
	r.Info["samples"] = len(lat)
	r.Info["tail_percentile"] = pct
	r.Info["beyond_tail"] = beyond(len(lat), pct)
	return r, nil
}

// traceLibrary is the traced library run: untraced and traced passes
// alternate for the run length, then one pass times each layer directly.
// Spans are kept in memory and written when the run ends.
func traceLibrary(cfg runConfig, r *result, v *verifier, runner *libRunner, rng *rand.Rand, order []int) error {
	jobs := v.jobs
	n := len(jobs)
	warm := runner.pass(jobs, order)
	v.check(warm)

	var untraced, traced []float64
	var spans []obs.SpanRecord
	var calls []libCall
	var allocs, bytes, pauseNS uint64
	var before, after runtime.MemStats
	runFor := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	for i := 0; len(traced) == 0 || time.Since(begin) < runFor; i++ {
		if i%2 == 0 {
			cs := runner.pass(jobs, rng.Perm(n))
			v.check(cs)
			untraced = append(untraced, runner.scaledTotal(cs))
			continue
		}
		runtime.ReadMemStats(&before)
		cs := runner.pass(jobs, rng.Perm(n))
		spans = appendCallSpans(spans, fmt.Sprintf("pass%d/", i), jobs, cs)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		pauseNS += after.PauseTotalNs - before.PauseTotalNs
		v.check(cs)
		traced = append(traced, runner.scaledTotal(cs))
		calls = append(calls, cs...)
	}

	reqs := float64(len(calls))
	var stageMS = make(map[string]float64)
	var wins = make(map[string]float64)
	var searchSteps, searchBudget, searchUS, backtracks, attempts, evicted float64
	for _, c := range calls {
		wins[c.res.Winner]++
		if c.res.Spill != nil {
			attempts += float64(c.res.Spill.Attempts)
			evicted += float64(len(c.res.Spill.Spilled))
		}
		for _, st := range c.res.Stages {
			if st.Skipped {
				continue
			}
			stageMS[st.Stage] += ms(st.Elapsed)
			if st.Stage == telamalloc.StageSearch {
				searchSteps += float64(st.Stats.Steps)
				searchBudget += float64(st.StepBudget)
				searchUS += us(st.Elapsed)
				backtracks += float64(st.Stats.MinorBacktracks + st.Stats.MajorBacktracks)
			}
		}
	}
	for _, s := range stages {
		r.set("pipeline."+s+".ms_per_request", stageMS[s]/reqs)
		r.set("pipeline."+s+".win_frac", wins[s]/reqs)
	}
	r.set("pipeline.search.budget_used_frac", ratio(searchSteps, searchBudget))
	r.set("core.steps_per_request", searchSteps/reqs)
	r.set("core.us_per_step", ratio(searchUS, searchSteps))
	r.set("core.backtracks_per_request", backtracks/reqs)
	r.set("spill.attempts_per_request", attempts/reqs)
	r.set("spill.evicted_per_request", evicted/reqs)
	r.set("runtime.allocs_per_request", float64(allocs)/reqs)
	r.set("runtime.bytes_per_request", float64(bytes)/reqs)
	r.set("runtime.gc_pause_us_per_request", float64(pauseNS)/1e3/reqs)
	r.set("trace.overhead_frac", median(traced)/median(untraced)-1)

	// The probe pass: each layer timed on its own, once per problem, with
	// the search replayed where the traced pipeline searched.
	var contention, canon []float64
	var pairs, modelUS, overlapUS, replaySteps, wakeups, props, conflicts float64
	for i, j := range jobs {
		lp := probeLayers(j.problem, searchReport(calls[len(calls)-n+i].res))
		contention = append(contention, us(lp.contention))
		canon = append(canon, us(lp.canonicalize))
		if !lp.searched {
			continue
		}
		if lp.replayedStepsOff != 0 {
			r.fail("%s: replayed search took %+d steps more than the pipeline's search stage", j.problem.Name, lp.replayedStepsOff)
		}
		pairs += float64(lp.pairs)
		modelUS += us(lp.model)
		overlapUS += us(lp.overlaps)
		replaySteps += float64(lp.steps)
		wakeups += float64(lp.pairWakeups)
		props += float64(lp.propagations)
		conflicts += float64(lp.conflicts)
	}
	r.set("buffers.contention_us_p50", percentile(contention, 50))
	r.set("cache.canonicalize_us_p50", percentile(canon, 50))
	r.set("cp.pairs_per_request", pairs/float64(n))
	r.set("cp.model_build_us_per_request", modelUS/float64(n))
	r.set("buffers.overlap_sweep_us_per_request", overlapUS/float64(n))
	r.set("cp.pair_wakeups_per_step", ratio(wakeups, replaySteps))
	r.set("cp.propagations_per_step", ratio(props, replaySteps))
	r.set("cp.conflicts_per_request", conflicts/float64(n))

	f := foldSpans(spans)
	r.set("pipeline.overhead_us_p50", percentile(f.self[rootSpan], 50))
	r.set("trace.self_time_coverage", f.coverage())
	r.Info["traced_passes"] = len(traced)
	r.Info["untraced_passes"] = len(untraced)
	path := filepath.Join(cfg.traceDir, cfg.workload+".jsonl")
	r.Info["spans"] = path
	return writeSpans(path, spans)
}

// searchReport returns the search stage's report, or nil when the ladder
// had none.
func searchReport(res telamalloc.PipelineResult) *telamalloc.StageReport {
	for i := range res.Stages {
		if res.Stages[i].Stage == telamalloc.StageSearch {
			return &res.Stages[i]
		}
	}
	return nil
}

// appendCallSpans records one request span per call and, under it, one span
// per stage that ran, laid end to end from the call's start (a stage report
// carries its duration, not its start).
func appendCallSpans(spans []obs.SpanRecord, prefix string, jobs []libJob, calls []libCall) []obs.SpanRecord {
	for i, c := range calls {
		trace := prefix + jobs[i].problem.Name
		start := c.start.UnixMicro()
		spans = append(spans, obs.SpanRecord{Trace: trace, Span: rootSpan, StartUS: start, DurUS: c.dur.Microseconds(),
			Attrs: map[string]any{"winner": c.res.Winner}})
		cursor := c.start
		for _, st := range c.res.Stages {
			if st.Skipped {
				continue
			}
			spans = append(spans, obs.SpanRecord{Trace: trace, Span: "stage:" + st.Stage,
				StartUS: cursor.UnixMicro(), DurUS: st.Elapsed.Microseconds(),
				Attrs: map[string]any{"steps": st.Stats.Steps, "step_budget": st.StepBudget}})
			cursor = cursor.Add(st.Elapsed)
		}
	}
	return spans
}

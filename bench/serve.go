package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telamalloc/internal/check"
	"telamalloc/internal/client"
	"telamalloc/internal/obs"
	"telamalloc/internal/wire"
)

// serveSetupReps is how many daemons a serve-repeat run starts to time
// set-up; setup_s is the median.
const serveSetupReps = 9

// serveConns is the number of connections (one client each) the generator
// spreads requests over: one per core of the 2-vCPU baseline box.
const serveConns = 2

// served is one request's round trip.
type served struct {
	req             wire.Request
	rep             *wire.Response
	err             error
	due, sent, done time.Time
}

func (s served) answered() bool {
	return s.err == nil && (s.rep.Outcome == wire.OutcomeSolved || s.rep.Outcome == wire.OutcomeDegraded)
}

// fleet is the generator's connections to one daemon.
type fleet []*client.Client

// dialFleet connects n clients. A client does not retry: a shed or a
// rejection is a failed request, counted as such.
func dialFleet(addr string, n int) (fleet, error) {
	var f fleet
	for i := 0; i < n; i++ {
		c, err := client.Dial(client.Config{Addr: addr, MaxAttempts: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		f = append(f, c)
	}
	return f, nil
}

func (f fleet) close() {
	for _, c := range f {
		c.Close()
	}
}

// submit sends req on connection k and waits for its report. There is no
// deadline: requests carry no wall-clock budget, so answers never depend on
// timing, and the parent process bounds the whole run.
func (f fleet) submit(k int, req wire.Request) (*wire.Response, error) {
	return f[k%len(f)].Submit(context.Background(), client.Request{
		ID: req.ID, Name: req.Name, Memory: req.Memory, Buffers: req.Buffers,
		MaxSteps: req.MaxSteps, Priority: req.Priority,
	})
}

func wireRequest(sr serveReq, id, priority string, maxSteps int64) wire.Request {
	return wire.Request{V: wire.Version, ID: id, Name: sr.problem.Name, Memory: sr.problem.Memory,
		Buffers: sr.buffers, MaxSteps: maxSteps, Priority: priority}
}

// clock is the time source of the open-loop generator, replaceable in tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runOpenLoop fires request i at its due time start + i*interval, whatever
// the earlier requests are doing; fire must start the request and return.
// Each request is timed from its due time, so a stall in the generator or
// the daemon is charged to every request it delays. The result is how late
// the generator ran: the largest gap between a due time and its fire.
func runOpenLoop(clk clock, start time.Time, interval time.Duration, n int, fire func(i int, due time.Time)) (maxLate time.Duration) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		clk.SleepUntil(due)
		if late := clk.Now().Sub(due); late > maxLate {
			maxLate = late
		}
		fire(i, due)
	}
	return maxLate
}

// sendOpen runs reqs as an open loop at serveRate over the fleet. With a
// speed log, a goroutine runs the reference loop about every speedEvery
// meanwhile, each time at a moment when no request is in flight, so that the
// loop competes with neither the daemon nor the client for a core, and once
// more after the last report.
func sendOpen(f fleet, reqs []wire.Request, speed *speedLog) ([]served, time.Duration) {
	var inflight atomic.Int64
	if speed != nil {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			tick := time.NewTicker(speedEvery)
			defer tick.Stop()
			for {
				for inflight.Load() > 0 {
					time.Sleep(200 * time.Microsecond)
				}
				speed.sample()
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		defer func() {
			close(stop)
			<-stopped
			speed.sample()
		}()
	}
	out := make([]served, len(reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	late := runOpenLoop(realClock{}, start, time.Second/serveRate, len(reqs), func(i int, due time.Time) {
		wg.Add(1)
		inflight.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			s := served{req: reqs[i], due: due, sent: time.Now()}
			s.rep, s.err = f.submit(i, reqs[i])
			s.done = time.Now()
			out[i] = s
		}()
	})
	wg.Wait()
	return out, late
}

// sendClosed keeps depth requests outstanding per connection, taking
// requests from next in turn, until n have been sent (n < 0: no limit) or
// until passes.
func sendClosed(f fleet, depth, n int, next func(i int) wire.Request, until time.Time) []served {
	var mu sync.Mutex
	var out []served
	var seq atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < depth*len(f); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(until) {
				i := int(seq.Add(1)) - 1
				if n >= 0 && i >= n {
					return
				}
				req := next(i)
				s := served{req: req, sent: time.Now()}
				s.due = s.sent
				s.rep, s.err = f.submit(k, req)
				s.done = time.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	return out
}

// verifyServed checks every report with the independent wire checker and
// counts failures: transport errors, sheds, rejections and failed verdicts.
func verifyServed(r *result, ss []served) {
	for _, s := range ss {
		r.Attempted++
		if s.err != nil {
			r.Failed++
			if len(r.Errors) < maxErrors {
				r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", s.req.ID, s.err))
			}
			continue
		}
		if rep := check.Wire(s.req, *s.rep); !rep.OK() {
			r.Failed++
			r.fail("%s (%s): %v", s.req.ID, s.req.Name, rep.Err())
			continue
		}
		if !s.answered() {
			r.Failed++
			if len(r.Errors) < maxErrors {
				r.Errors = append(r.Errors, fmt.Sprintf("%s: outcome %s %s %s", s.req.ID, s.rep.Outcome, s.rep.ErrorCode, s.rep.Error))
			}
		}
	}
}

// serveRun is one serve-repeat run's inputs in stream order.
type serveRun struct {
	cfg    runConfig
	corpus serveCorpus
	rng    *rand.Rand
	stream []serveReq     // the corpus in seeded order
	open   []wire.Request // the stream as sent
}

func (sr *serveRun) warmup(f fleet) []served {
	hot := sr.corpus.hot
	return sendClosed(f, 1, len(hot), func(i int) wire.Request {
		return wireRequest(hot[i], fmt.Sprintf("w%d", i), "batch", sr.corpus.maxSteps)
	}, time.Now().Add(time.Hour))
}

// openCount is how many stream requests an open-loop phase of share of the
// run length sends: the whole stream when the run is long enough.
func (sr *serveRun) openCount(share float64) int {
	return min(len(sr.open), int(share*sr.cfg.seconds*serveRate))
}

// runServe is the serve-repeat workload against telamallocd subprocesses:
// in each round, an open loop at serveRate gives the latency metrics and a
// closed loop gives the throughput the daemon sustains.
func runServe(cfg runConfig) (*result, error) {
	if cfg.daemon == "" {
		return nil, fmt.Errorf("%s needs -daemon, the telamallocd binary (bench/run.sh builds it)", wServeRepeat)
	}
	corpus := buildServeCorpus(cfg.smoke)
	r := newResult(wServeRepeat, cfg.seed, cfg.trace)
	digest := corpus.digest()
	r.checkCorpus(digest, cfg.smoke)
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(corpus.requests))
	r.Info["stream_sha256"] = streamDigest(digest, order, true)
	sr := &serveRun{cfg: cfg, corpus: corpus, rng: rng}
	for pos, i := range order {
		sr.stream = append(sr.stream, corpus.requests[i])
		sr.open = append(sr.open, wireRequest(corpus.requests[i], fmt.Sprintf("o%d", pos), priorityAt(pos), corpus.maxSteps))
	}
	if cfg.trace {
		return r, sr.trace(r)
	}
	return r, sr.measure(r)
}

func (sr *serveRun) measure(r *result) error {
	var speed speedLog
	var setup, rawSetup []float64
	for k := 0; k < serveSetupReps; k++ {
		speed.sample()
		start, end, err := sr.setupOnce(r)
		if err != nil {
			return err
		}
		speed.sample()
		setup = append(setup, secs(speed.scale(end.Sub(start), start, end)))
		rawSetup = append(rawSetup, secs(end.Sub(start)))
	}
	r.set("setup_s", median(setup))
	r.Info["raw_setup_s"] = median(rawSetup)

	perRound := min(len(sr.open)/serveRounds, int(roundOpenShare*sr.cfg.seconds*serveRate))
	pct := tailPercentile[wServeRepeat]
	var rawLat, tails, rawTails, rates, rawRates, rss []float64
	var answers []answer
	var late time.Duration
	for k := 0; k < serveRounds; k++ {
		rd, err := sr.round(r, k*perRound, (k+1)*perRound)
		if err != nil {
			return err
		}
		var roundLat, roundRaw []float64
		for _, s := range rd.open {
			d := s.done.Sub(s.due)
			roundLat = append(roundLat, ms(rd.speed.scale(d, s.due, s.done)))
			roundRaw = append(roundRaw, ms(d))
		}
		rawLat = append(rawLat, roundRaw...)
		tails = append(tails, percentile(roundLat, pct))
		rawTails = append(rawTails, percentile(roundRaw, pct))
		rates, rawRates = append(rates, rd.rate), append(rawRates, rd.rawRate)
		rss = append(rss, rd.rssMB)
		answers = append(answers, sr.answers(k*perRound, rd.open)...)
		late = max(late, rd.late)
	}
	// The median request is a cache hit, whose time goes to wake-ups and the
	// loopback network rather than to computing, which the reference loop
	// does not track: it is reported as measured. The tail (fresh solves)
	// and the closed loop are bound by computing and are scaled.
	r.set("latency_p50_ms", percentile(rawLat, 50))
	r.set("latency_tail_ms", median(tails))
	r.set("requests_per_s", median(rates))
	r.Info["raw_latency_tail_ms"] = median(rawTails)
	r.Info["raw_requests_per_s"] = median(rawRates)
	onchip, pol := packingQuality(answers)
	r.set("onchip_bytes_frac", onchip)
	r.set("peak_over_lb", pol)
	r.set("peak_rss_mb", median(rss))
	r.Info["samples"] = len(rawLat)
	r.Info["round_samples"] = perRound
	r.Info["tail_percentile"] = pct
	r.Info["beyond_tail"] = beyond(perRound, pct)
	r.Info["generator_late_ms_max"] = ms(late)
	return nil
}

// setupOnce starts a daemon, sends it one trivial request over a fresh
// connection, checks the report and drains the daemon; it returns when the
// spawn started and when the checked report was in.
func (sr *serveRun) setupOnce(r *result) (start, end time.Time, err error) {
	start = time.Now()
	d, err := startDaemon(sr.cfg.daemon, false)
	if err != nil {
		return start, end, err
	}
	defer d.kill()
	f, err := dialFleet(d.addr, 1)
	if err != nil {
		return start, end, err
	}
	req := wire.Request{V: wire.Version, ID: "setup", Name: trivialProblem.Name, Memory: trivialProblem.Memory,
		Buffers: newServeReq("", trivialProblem).buffers}
	s := served{req: req}
	s.rep, s.err = f.submit(0, req)
	failed := r.Failed
	verifyServed(r, []served{s})
	end = time.Now()
	f.close()
	if r.Failed > failed {
		return start, end, fmt.Errorf("setup request failed: %v", s.err)
	}
	return start, end, d.stop()
}

// Each serve-repeat run measures serveRounds rounds, each against a fresh
// daemon: a warm-up that caches the hot set, an open loop over the next
// part of the stream, then the closed loop. A daemon's speed differs from
// one process to the next by more than a tenth on a shared machine, so the
// tail, the rate and peak memory are medians over rounds. A round's open
// loop takes roundOpenShare of the run length (1,000 requests at the
// default length, so its p99 has ten samples beyond it) and its closed loop
// roundClosedShare.
const (
	serveRounds      = 3
	roundOpenShare   = 0.25
	roundClosedShare = 0.075
)

// roundResult is what one round measured.
type roundResult struct {
	open  []served
	late  time.Duration
	speed speedLog // sampled while nothing was in flight
	// rate is the closed loop's requests per second in its median window,
	// at reference speed; rawRate is the same without scaling.
	rate, rawRate float64
	rssMB         float64 // the daemon's peak resident set
}

// round runs stream requests [from, to) as one round; every report is
// checked and counted in r.
func (sr *serveRun) round(r *result, from, to int) (roundResult, error) {
	var rd roundResult
	d, err := startDaemon(sr.cfg.daemon, false)
	if err != nil {
		return rd, err
	}
	defer d.kill()
	f, err := dialFleet(d.addr, serveConns)
	if err != nil {
		return rd, err
	}
	defer f.close()
	verifyServed(r, sr.warmup(f))
	rd.open, rd.late = sendOpen(f, sr.open[from:to], &rd.speed)
	closed, rates, rawRates := sr.closedLoop(f, &rd.speed, time.Now().Add(time.Duration(roundClosedShare*sr.cfg.seconds*float64(time.Second))))
	rd.rate, rd.rawRate = median(rates), median(rawRates)
	if rd.rssMB, err = d.peakRSSMB(); err != nil {
		return rd, err
	}
	f.close()
	if err := d.stop(); err != nil {
		return rd, err
	}
	verifyServed(r, rd.open)
	verifyServed(r, closed)
	return rd, nil
}

// closedWindow is the length of one closed-loop window. The median window
// stands for the round, so a stall costs one window rather than the rate.
const closedWindow = 250 * time.Millisecond

// closedDepth is how many requests the closed loop keeps outstanding per
// connection: enough that the daemon and the client stay busy rather than
// waiting on each other's wake-ups.
const closedDepth = 4

// closedLoop re-requests the hot set, which the warm-up cached, with
// closedDepth requests outstanding per connection, in windows of
// closedWindow until end.
// Its rate is the capacity of the reuse path (wire, admission, cache lookup)
// that carries most of this workload's traffic. Between windows nothing is
// in flight and the reference loop runs. It returns every report and each
// window's rate at reference speed and raw.
func (sr *serveRun) closedLoop(f fleet, speed *speedLog, end time.Time) (all []served, rates, raw []float64) {
	hot := sr.corpus.hot
	order := sr.rng.Perm(len(hot))
	speed.sample()
	for len(rates) == 0 || time.Now().Before(end) {
		base, start := len(all), time.Now()
		window := sendClosed(f, closedDepth, -1, func(i int) wire.Request {
			i += base
			return wireRequest(hot[order[i%len(hot)]], fmt.Sprintf("k%d", i), priorityAt(i), sr.corpus.maxSteps)
		}, start.Add(closedWindow))
		last := start
		for _, s := range window {
			if s.done.After(last) {
				last = s.done
			}
		}
		all = append(all, window...)
		speed.sample()
		if d := last.Sub(start); d > 0 {
			raw = append(raw, float64(len(window))/d.Seconds())
			rates = append(rates, float64(len(window))/speed.scale(d, start, last).Seconds())
		}
	}
	return all, rates, raw
}

// answers pairs open-loop reports with the stream's problems from position
// from on.
func (sr *serveRun) answers(from int, open []served) []answer {
	as := make([]answer, len(open))
	for i, s := range open {
		as[i] = answer{problem: sr.stream[from+i].problem, ok: s.answered()}
		if as[i].ok {
			as[i].offsets = s.rep.Offsets
		}
	}
	return as
}

// trace is the traced serve-repeat run: the same open loop against an
// untraced daemon and then against one writing its lifecycle spans, each
// for under half the run length. The second daemon's spans are folded into
// per-layer self times; its /metrics and /debug/vars are read around the
// open loop.
func (sr *serveRun) trace(r *result) error {
	n := sr.openCount(0.45)
	untraced, _, _, err := sr.tracePhase(r, n, "")
	if err != nil {
		return err
	}
	path := filepath.Join(sr.cfg.traceDir, wServeRepeat+".jsonl")
	if err := os.MkdirAll(sr.cfg.traceDir, 0o755); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	traced, late, sc, err := sr.tracePhase(r, n, path)
	if err != nil {
		return err
	}
	r.Info["spans"] = path
	spans, err := readSpans(path)
	if err != nil {
		return err
	}
	var openSpans []obs.SpanRecord
	for _, s := range spans {
		if strings.HasPrefix(s.Trace, "o") {
			openSpans = append(openSpans, s)
		}
	}
	reqs := float64(n)
	f := foldSpans(openSpans)
	r.set("client.generator_late_ms_max", ms(late))
	var overhead []float64
	var evicted float64
	for _, s := range traced {
		if s.err == nil {
			overhead = append(overhead, ms(s.done.Sub(s.sent))-s.rep.QueueWaitMS-s.rep.ElapsedMS)
			evicted += float64(len(s.rep.Spilled))
		}
	}
	r.set("client.overhead_ms_p50", percentile(overhead, 50))
	r.set("spill.evicted_per_request", evicted/reqs)

	queue := f.self["queue"]
	for i := range queue {
		queue[i] /= 1e3
	}
	r.set("server.queue_wait_ms_p50", percentile(queue, 50))
	r.set("server.queue_wait_ms_p99", percentile(queue, 99))
	var service []float64
	var busyUS float64
	stageUS := make(map[string]float64)
	wins := make(map[string]float64)
	var steps, budget, backtracks float64
	for _, s := range openSpans {
		switch {
		case s.Span == "settle":
			service = append(service, float64(s.DurUS)/1e3)
			busyUS += float64(s.DurUS)
		case strings.HasPrefix(s.Span, "stage:"):
			st := strings.TrimPrefix(s.Span, "stage:")
			stageUS[st] += float64(s.DurUS)
			if s.Attrs["outcome"] == "won" {
				wins[st]++
			}
			if st == "search" {
				steps += attr(s, "steps")
				budget += attr(s, "step_budget")
				backtracks += attr(s, "backtracks")
			}
		}
	}
	r.set("server.service_ms_p50", percentile(service, 50))
	r.set("server.service_ms_p99", percentile(service, 99))
	phase := time.Duration(n) * time.Second / serveRate
	r.set("server.busy_frac", busyUS/(serveWorkers*us(phase)))
	r.set("server.request_self_us_p50", percentile(f.self[rootSpan], 50))
	r.set("cache.lookup_us_p50", percentile(f.self["cache"], 50))
	r.set("pipeline.overhead_us_p50", percentile(f.self["settle"], 50))
	for _, s := range stages {
		r.set("pipeline."+s+".ms_per_request", stageUS[s]/1e3/reqs)
		r.set("pipeline."+s+".win_frac", wins[s]/reqs)
	}
	r.set("pipeline.search.budget_used_frac", ratio(steps, budget))
	r.set("core.steps_per_request", steps/reqs)
	r.set("core.us_per_step", ratio(stageUS["search"], steps))
	r.set("core.backtracks_per_request", backtracks/reqs)

	hits, misses := sc.delta(`telamalloc_server_cache_events_total{event="hit"}`), sc.delta(`telamalloc_server_cache_events_total{event="miss"}`)
	r.set("cache.hit_frac", ratio(hits, hits+misses))
	r.set("cache.near_hit_frac", ratio(sc.delta(`telamalloc_server_cache_events_total{event="near_hit"}`), hits+misses))
	r.set("cache.dedup_shared_frac", sc.delta("telamalloc_server_dedup_shared_total")/reqs)
	r.set("cache.hint_replay_frac", sc.delta("telamalloc_server_hint_replays_total")/reqs)
	r.set("server.shed", sc.delta(`telamalloc_server_outcomes_total{outcome="shed"}`))
	r.set("server.expired", sc.delta(`telamalloc_server_expired_in_queue_total{point="dequeue"}`)+
		sc.delta(`telamalloc_server_expired_in_queue_total{point="evict"}`))
	r.set("runtime.allocs_per_request", float64(sc.memAfter.Mallocs-sc.memBefore.Mallocs)/reqs)
	r.set("runtime.bytes_per_request", float64(sc.memAfter.TotalAlloc-sc.memBefore.TotalAlloc)/reqs)
	r.set("runtime.gc_pause_us_per_request", float64(sc.memAfter.PauseTotalNs-sc.memBefore.PauseTotalNs)/1e3/reqs)

	r.set("trace.overhead_frac", percentile(latencies(traced), 50)/percentile(latencies(untraced), 50)-1)
	r.set("trace.self_time_coverage", f.coverage())
	r.Info["samples"] = n
	return nil
}

func latencies(ss []served) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.done.Sub(s.due))
	}
	return out
}

// attr reads a numeric span attribute (JSON numbers decode as float64).
func attr(s obs.SpanRecord, key string) float64 {
	v, _ := s.Attrs[key].(float64)
	return v
}

// phaseScrape is what a traced phase read from the daemon around its open
// loop.
type phaseScrape struct {
	before, after       map[string]float64
	memBefore, memAfter memStats
}

func (p phaseScrape) delta(series string) float64 { return p.after[series] - p.before[series] }

// tracePhase starts a daemon (writing spans to spanPath when set), warms it,
// and runs the first n stream requests as an open loop. With spans it also
// scrapes /metrics and /debug/vars before and after the loop.
func (sr *serveRun) tracePhase(r *result, n int, spanPath string) (open []served, late time.Duration, scrape phaseScrape, err error) {
	traced := spanPath != ""
	var extra []string
	if traced {
		extra = []string{"-trace-file", spanPath}
	}
	d, err := startDaemon(sr.cfg.daemon, traced, extra...)
	if err != nil {
		return nil, 0, scrape, err
	}
	defer d.kill()
	f, err := dialFleet(d.addr, serveConns)
	if err != nil {
		return nil, 0, scrape, err
	}
	defer f.close()
	verifyServed(r, sr.warmup(f))
	if traced {
		if scrape.before, err = d.scrapeMetrics(); err != nil {
			return nil, 0, scrape, err
		}
		if scrape.memBefore, err = d.memStats(); err != nil {
			return nil, 0, scrape, err
		}
	}
	open, late = sendOpen(f, sr.open[:n], nil)
	if traced {
		if scrape.after, err = d.scrapeMetrics(); err != nil {
			return nil, 0, scrape, err
		}
		if scrape.memAfter, err = d.memStats(); err != nil {
			return nil, 0, scrape, err
		}
	}
	f.close()
	if err := d.stop(); err != nil {
		return nil, 0, scrape, err
	}
	verifyServed(r, open)
	return open, late, scrape, nil
}

// Command telamallocd runs the long-lived allocation service: the serving
// harness a production fleet puts in front of the allocator so many
// concurrent clients can load models at once without crashing, queueing
// without bound, or hanging a compile (internal/server, DESIGN.md §9).
//
// Requests are line-delimited JSON, one request per line, answered with one
// JSON report per line (order may differ from request order under
// concurrency; correlate with "id"). By default the daemon serves stdin and
// answers on stdout; with -listen it serves every TCP connection the same
// protocol.
//
// Usage:
//
//	echo '{"v":1,"id":"r1","memory":8,"buffers":[{"start":0,"end":4,"size":4},{"start":0,"end":4,"size":4}]}' | telamallocd
//	telamallocd -workers 8 -req-timeout 2s < requests.jsonl
//	telamallocd -listen :7333 -metrics-addr :9100 -trace-file trace.jsonl &
//
// Request schema (wire protocol version 1, DESIGN.md §12):
//
//	{"v":1,                     // protocol version; omitted means 1
//	 "id":"r1",                 // echoed back, optional
//	 "name":"model-a",          // diagnostic label, optional
//	 "memory":1048576,          // scratchpad limit, required
//	 "buffers":[{"start":0,"end":4,"size":512,"align":64}, ...],
//	 "max_steps":200000,        // per-request step pot, optional
//	 "timeout_ms":500,          // per-request wall pot, optional
//	 "priority":"interactive",  // admission class, optional (default batch)
//	 "tenant":"team-a"}         // fairness domain, optional
//
// Report schema (one line per request; "v" is always the version served):
//
//	{"v":1,"id":"r1","outcome":"solved","winner":"greedy","offsets":[0,512],
//	 "lower_bound":1024,"memory":1048576,"elapsed_ms":0.21,...}
//
// outcome is one of solved, degraded, failed, shed, cancelled, rejected;
// shed reports carry "retry_after_ms". A request with an unknown "v" is
// rejected without being parsed further: outcome "rejected" with
// error_code "unsupported_version" — never a silent misinterpretation.
//
// Under overload the daemon applies the server's overload-control layer
// (DESIGN.md §14): per-class queue lanes with strict-priority dequeue
// (-class-depth), per-tenant token buckets and in-flight shares
// (-tenant-rps, -tenant-burst, -tenant-share; sheds carry error_code
// "tenant_overloaded"), eviction of requests whose budget expired in queue
// (error_code "deadline_exceeded_in_queue" — no solver step is spent on
// dead work), and a brownout controller (-brownout-target) that trades
// answer quality for latency with hysteresis; responses produced under a
// degraded ladder carry "degraded_by_brownout":true.
//
// With -metrics-addr the daemon serves its observability surface over HTTP:
// Prometheus metrics at /metrics, liveness at /healthz, readiness at
// /readyz (503 the moment draining begins, before the listener closes),
// the expvar JSON dump at /debug/vars, and the pprof profiles under
// /debug/pprof/. With -trace-file every request's lifecycle spans (admit →
// queue → cache/dedup → stage:<s> → settle) are appended to the given file
// as JSON Lines.
//
// In -listen mode each connection reads under an -idle-timeout deadline,
// -max-conns bounds concurrency (excess connections are shed with a typed
// report), and scanner failures — oversized or truncated lines, idle
// reaps, shutdown — emit one final typed rejection before the connection
// closes. A solve that overruns its -req-timeout or timeout_ms stops at
// the deadline and fails with the budget verdict (DESIGN.md §13).
//
// On stdin EOF (or SIGINT/SIGTERM in -listen mode) the daemon drains
// gracefully — stops admitting, finishes or cancels in-flight work within
// -drain-timeout — and prints the service counters to stderr. Exit code 0
// after a clean drain, 3 after a forced one, 1 on usage errors.
package main

import (
	"bufio"
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"telamalloc"
	"telamalloc/internal/obs"
	"telamalloc/internal/server"
	"telamalloc/internal/wire"
)

// wireVersion is the line protocol version this daemon speaks. Requests may
// omit "v" (treated as 1); any other value is rejected up front. The schema
// itself lives in internal/wire, shared with internal/client so both ends
// marshal against the same struct.
const wireVersion = wire.Version

type (
	wireBuffer   = wire.Buffer
	wireRequest  = wire.Request
	wireResponse = wire.Response
)

func main() {
	var (
		listen       = flag.String("listen", "", "TCP address to serve (empty = stdin/stdout)")
		workers      = flag.Int("workers", 0, "concurrent pipeline executions (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 64, "admission queue bound; beyond it requests are shed")
		reqTimeout   = flag.Duration("req-timeout", 0, "per-request wall-clock pot, measured from admission (0 = none)")
		maxSteps     = flag.Int64("max-steps", 0, "per-request search step pot (0 = unlimited)")
		parallel     = flag.Int("parallel", 0, "solver parallelism per request (0 = GOMAXPROCS)")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive internal failures that open a stage's breaker (-1 disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker window before a half-open probe")
		drainTO      = flag.Duration("drain-timeout", 5*time.Second, "graceful-drain deadline on shutdown")
		cacheSize    = flag.Int("cache-size", 256, "solution cache capacity in entries (0 disables caching)")
		noDedup      = flag.Bool("no-dedup", false, "disable singleflight deduplication of concurrent identical requests")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "close a -listen connection after this long without a completed read (0 = never)")
		maxConns     = flag.Int("max-conns", 256, "concurrent -listen connections; excess connections are shed with a typed report")
		maxLine      = flag.Int("max-line", 1<<26, "largest accepted request line in bytes")
		classDepth   = flag.String("class-depth", "", `per-class queue bounds, e.g. "interactive=128,batch=64,background=16" (unset classes use -queue)`)
		tenantRPS    = flag.Float64("tenant-rps", 0, "per-tenant sustained admission rate in requests/second (0 = no rate limit)")
		tenantBurst  = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = ceil of -tenant-rps)")
		tenantShare  = flag.Float64("tenant-share", 0, "max fraction of server capacity one tenant may hold in flight (0 or >=1 = off)")
		brownTarget  = flag.Duration("brownout-target", 0, "queue-wait p90 the brownout controller defends; under sustained pressure it degrades the ladder and recovers with hysteresis (0 = off)")
		brownIntv    = flag.Duration("brownout-interval", 0, "brownout controller evaluation cadence (0 = 100ms default)")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP address for /metrics, /healthz, /readyz, /debug/vars and /debug/pprof/ (empty = off)")
		traceFile    = flag.String("trace-file", "", "append request lifecycle spans to this file as JSON Lines (empty = off)")
		quiet        = flag.Bool("q", false, "suppress the counters summary on shutdown")
	)
	flag.Parse()

	var tracer *obs.Tracer
	var flushTrace func()
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telamallocd: -trace-file: %v\n", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		tracer = obs.NewTracer(bw)
		// main exits via os.Exit, so the flush is explicit, after drain.
		flushTrace = func() {
			bw.Flush()
			f.Close()
		}
	}

	hlt := &health{}
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telamallocd: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telamallocd: observability on http://%s/metrics\n", mln.Addr())
		go func() { _ = http.Serve(mln, obsMux(hlt)) }()
	}

	cacheCfg := *cacheSize
	if cacheCfg <= 0 {
		cacheCfg = -1 // the server treats 0 as "default"; the flag's 0 means off
	}
	classBounds, err := parseClassDepth(*classDepth)
	if err != nil {
		fmt.Fprintf(os.Stderr, "telamallocd: -class-depth: %v\n", err)
		os.Exit(1)
	}
	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
		MaxSteps:       *maxSteps,
		Parallelism:    *parallel,
		DrainTimeout:   *drainTO,
		CacheSize:      cacheCfg,
		DisableDedup:   *noDedup,
		Breaker: server.BreakerConfig{
			Threshold: *brkThreshold,
			Cooldown:  *brkCooldown,
		},
		ClassDepth: classBounds,
		Tenant: server.TenantConfig{
			RPS:      *tenantRPS,
			Burst:    *tenantBurst,
			MaxShare: *tenantShare,
		},
		Brownout: server.BrownoutConfig{
			Target:   *brownTarget,
			Interval: *brownIntv,
		},
		Tracer: tracer,
	})

	var drainErr error
	if *listen == "" {
		hlt.setReady(true)
		serveStream(srv, os.Stdin, os.Stdout, *maxLine)
		hlt.setReady(false)
		drainErr = srv.Close()
	} else {
		drainErr = serveTCP(srv, *listen, hlt, *idleTimeout, *maxConns, *maxLine, *drainTO)
	}

	code := 0
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "telamallocd: %v\n", drainErr)
		if errors.Is(drainErr, server.ErrDrainTimeout) {
			code = 3 // forced drain: served what it could, then cut the rest
		} else {
			code = 1 // usage/listen failure
		}
	}
	if flushTrace != nil {
		flushTrace()
	}
	if !*quiet {
		c := srv.Snapshot()
		fmt.Fprintf(os.Stderr,
			"telamallocd: submitted %d admitted %d shed %d rejected %d | solved %d degraded %d failed %d cancelled %d | breaker trips/probes/recoveries %d/%d/%d | cache hits/misses/near %d/%d/%d len %d | dedup-shared %d hint-replays %d | expired dequeue/evict %d/%d tenant-shed %d | brownout degrades/recovers %d/%d marked %d\n",
			c.Submitted, c.Admitted, c.Shed, c.RejectedDraining,
			c.Solved, c.Degraded, c.Failed, c.Cancelled,
			c.BreakerTrips, c.BreakerProbes, c.BreakerRecoveries,
			c.CacheHits, c.CacheMisses, c.CacheNearHits, c.CacheLen,
			c.DedupShared, c.HintReplays,
			c.ExpiredInQueue, c.ExpiredEvicted, c.TenantShed,
			c.BrownoutDegrades, c.BrownoutRecovers, c.BrownoutDegraded)
	}
	os.Exit(code)
}

// parseClassDepth parses the -class-depth flag: comma-separated
// class=depth pairs over the known priority classes.
func parseClassDepth(s string) (map[server.Priority]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[server.Priority]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%q: want class=depth", part)
		}
		p := server.Priority(strings.TrimSpace(name))
		if !p.Valid() || p == "" {
			return nil, fmt.Errorf("unknown class %q (want interactive, batch, or background)", name)
		}
		d, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("%q: depth must be a positive integer", part)
		}
		out[p] = d
	}
	return out, nil
}

// obsMux builds the observability HTTP surface served on -metrics-addr:
// Prometheus metrics, expvar, pprof, and the liveness/readiness endpoints.
func obsMux(hlt *health) *http.ServeMux {
	reg := obs.Default()
	reg.PublishExpvar("telamalloc")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", hlt.healthz)
	mux.HandleFunc("/readyz", hlt.readyz)
	return mux
}

// serveTCP serves the line protocol over TCP until SIGINT/SIGTERM, then
// drains within drainTimeout (connection lifecycle in conn.go). Returns
// server.ErrDrainTimeout when the drain had to force-cancel work.
func serveTCP(srv *server.Server, addr string, hlt *health, idle time.Duration, maxConns, maxLine int, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telamallocd: %w", err)
	}
	d := newTCPDaemon(srv, ln, hlt, idle, maxConns, maxLine, drainTimeout)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		d.shutdownNow()
	}()
	hlt.setReady(true)
	fmt.Fprintf(os.Stderr, "telamallocd: listening on %s\n", ln.Addr())
	return d.run()
}

// serveStream answers line-delimited JSON requests from r on w until EOF —
// the stdin/stdout mode. TCP connections run the same loop via serveConn.
// maxLine caps one request line, as -max-line does for TCP connections.
func serveStream(srv *server.Server, r io.Reader, w io.Writer, maxLine int) {
	serveScanner(srv, newWireScanner(r, maxLine), w)
}

// serveScanner answers each request line from sc on w. Requests run
// concurrently through the server (which is where admission control lives);
// a mutex serialises report lines. A scanner failure — oversized line,
// mid-line disconnect, idle timeout, shutdown — emits one final typed
// rejected report before the stream closes, so the peer always learns why.
func serveScanner(srv *server.Server, sc *bufio.Scanner, w io.Writer) {
	var mu sync.Mutex
	var line []byte // guarded by mu: reports are encoded into one reused buffer
	var wg sync.WaitGroup
	emit := func(resp wireResponse) {
		resp.V = wireVersion // every report declares the version it speaks
		mu.Lock()
		defer mu.Unlock()
		var err error
		if line, err = wire.AppendResponse(line[:0], &resp); err != nil {
			line = append(line[:0], `{"v":1,"outcome":"failed","error":"report marshal failure"}`...)
		}
		line = append(line, '\n')
		w.Write(line)
	}
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var req wireRequest
		if err := wire.DecodeRequest(raw, &req); err != nil {
			emit(wireResponse{Outcome: wire.OutcomeRejected, ErrorCode: wire.CodeBadRequest,
				Error: fmt.Sprintf("bad request line: %v", err)})
			continue
		}
		// Version gate: v omitted (0) means 1; anything else is a client
		// speaking a protocol this daemon does not — reject typed, never
		// guess at field semantics.
		if req.V != 0 && req.V != wireVersion {
			emit(wireResponse{ID: req.ID, Outcome: wire.OutcomeRejected, ErrorCode: wire.CodeUnsupportedVersion,
				Error: fmt.Sprintf("unsupported wire protocol version %d (this daemon speaks %d)", req.V, wireVersion)})
			continue
		}
		wg.Add(1)
		go func(req wireRequest) {
			defer wg.Done()
			emit(handle(srv, req))
		}(req)
	}
	if err := sc.Err(); err != nil {
		emit(wireResponse{Outcome: wire.OutcomeRejected, ErrorCode: scanErrorCode(err),
			Error: fmt.Sprintf("read: %v", err)})
	}
	wg.Wait()
}

// handle runs one request through the service and maps the terminal outcome
// to the wire schema.
func handle(srv *server.Server, wreq wireRequest) wireResponse {
	p := server.Problem{Memory: wreq.Memory, Name: wreq.Name, Buffers: make([]telamalloc.Buffer, 0, len(wreq.Buffers))}
	for _, b := range wreq.Buffers {
		p.Buffers = append(p.Buffers, telamalloc.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align})
	}
	resp, err := srv.Submit(context.Background(), server.Request{
		Problem:  p,
		MaxSteps: wreq.MaxSteps,
		Timeout:  time.Duration(wreq.TimeoutMS) * time.Millisecond,
		TraceID:  wreq.ID,
		Priority: server.Priority(wreq.Priority),
		Tenant:   wreq.Tenant,
	})
	out := wireResponse{ID: wreq.ID}
	var overload *server.OverloadError
	switch {
	case errors.As(err, &overload):
		out.Outcome = wire.OutcomeShed
		out.ErrorCode = wire.CodeOverloaded
		if overload.Tenant != "" {
			// A per-tenant shed is the tenant's quota, not daemon
			// capacity — a distinct code so fleet dashboards (and other
			// tenants' clients) don't read one hot tenant as an outage.
			out.ErrorCode = wire.CodeTenantOverloaded
		}
		out.Error = err.Error()
		out.RetryAfterMS = float64(overload.RetryAfter.Microseconds()) / 1e3
	case errors.Is(err, server.ErrBadPriority):
		out.Outcome = wire.OutcomeRejected
		out.ErrorCode = wire.CodeBadRequest
		out.Error = err.Error()
	case errors.Is(err, server.ErrExpiredInQueue):
		// The budget ran out while queued; no solver step was spent. Typed
		// so clients can tell "raise your budget or back off" from a solve
		// that ran and failed.
		out.Outcome = wire.OutcomeFailed
		out.ErrorCode = wire.CodeDeadlineExceededInQueue
		out.Error = err.Error()
		if resp != nil {
			out.Memory = resp.Memory
			out.QueueWaitMS = float64(resp.QueueWait.Microseconds()) / 1e3
			out.ElapsedMS = float64(resp.Elapsed.Microseconds()) / 1e3
		}
	case errors.Is(err, server.ErrDraining):
		out.Outcome = wire.OutcomeRejected
		out.ErrorCode = wire.CodeDraining
		out.Error = err.Error()
	case errors.Is(err, server.ErrCancelled):
		out.Outcome = wire.OutcomeCancelled
		out.Error = err.Error()
	case resp != nil:
		out.Outcome = string(resp.Outcome)
		out.Winner = resp.Winner
		out.Offsets = resp.Offsets
		out.Spilled = resp.Spilled
		out.SpillCost = resp.SpillCost
		out.LowerBound = resp.LowerBound
		out.Memory = resp.Memory
		out.SkippedByBreaker = resp.SkippedByBreaker
		out.CacheHit = resp.CacheHit
		out.Deduped = resp.Deduped
		out.HintReplayed = resp.HintReplayed
		out.DegradedByBrownout = resp.DegradedByBrownout
		out.QueueWaitMS = float64(resp.QueueWait.Microseconds()) / 1e3
		out.ElapsedMS = float64(resp.Elapsed.Microseconds()) / 1e3
		out.Error = resp.Err
	default:
		out.Outcome = "failed"
		if err != nil {
			out.Error = err.Error()
		}
	}
	return out
}

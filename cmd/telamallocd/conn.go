// Connection lifecycle for -listen mode: accept limiting, per-connection
// idle read deadlines, typed scanner-failure reports, and shutdown
// propagation so SIGTERM drain is bounded by -drain-timeout even with
// idle, slowloris, or half-written connections open (DESIGN.md §13).
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"telamalloc/internal/faultinject"
	"telamalloc/internal/server"
	"telamalloc/internal/wire"
)

// Sentinel read errors, each surfaced to the peer as a typed rejected
// report before its connection closes.
var (
	errIdleTimeout   = errors.New("idle read deadline exceeded")
	errShuttingDown  = errors.New("daemon shutting down")
	errTruncatedLine = errors.New("connection closed mid-line")
)

// scanLinesStrict is bufio.ScanLines minus the final-partial-line
// forgiveness: data after the last newline at EOF is a mid-line disconnect,
// not a request. Parsing it would misinterpret a truncated line as a
// (possibly valid!) request — the one thing a versioned protocol must never
// do — so it surfaces as errTruncatedLine and a typed report instead.
func scanLinesStrict(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line := data[:i]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return i + 1, line, nil
	}
	if atEOF {
		if len(data) > 0 {
			return 0, nil, errTruncatedLine
		}
		return 0, nil, nil
	}
	return 0, nil, nil
}

// newWireScanner builds the request-line scanner used by both stdin and TCP
// modes. maxLine caps one request line (≤ 0 means 64 MiB); beyond it the
// scanner fails with bufio.ErrTooLong, reported typed as line_too_long.
func newWireScanner(r io.Reader, maxLine int) *bufio.Scanner {
	if maxLine <= 0 {
		maxLine = 1 << 26
	}
	sc := bufio.NewScanner(r)
	// The initial buffer must not exceed the cap: the scanner only enforces
	// maxLine when it has to grow past its current buffer.
	sc.Buffer(make([]byte, 0, min(64<<10, maxLine)), maxLine)
	sc.Split(scanLinesStrict)
	return sc
}

// connReader reads request bytes from a TCP connection under the daemon's
// lifecycle rules: every read must complete within the idle window, and the
// shutdown latch overrides everything — including the deadline extension a
// slowloris would otherwise earn by dribbling bytes.
type connReader struct {
	nc       net.Conn
	idle     time.Duration
	shutdown <-chan struct{}
	hook     func(string) bool // faultinject; nil in production
}

func (cr *connReader) Read(p []byte) (int, error) {
	select {
	case <-cr.shutdown:
		return 0, errShuttingDown
	default:
	}
	if cr.hook != nil && cr.hook(faultinject.PointConnRead) {
		return 0, errIdleTimeout // a starved read models an idle peer
	}
	if cr.idle > 0 {
		cr.nc.SetReadDeadline(time.Now().Add(cr.idle))
	}
	n, err := cr.nc.Read(p)
	if err != nil {
		// The shutdown poke fires the deadline early; name the real cause.
		select {
		case <-cr.shutdown:
			return n, errShuttingDown
		default:
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return n, errIdleTimeout
		}
	}
	return n, err
}

// scanErrorCode maps a scanner failure to its typed wire code ("" = an
// untyped transport error; the report still carries the text).
func scanErrorCode(err error) string {
	switch {
	case errors.Is(err, bufio.ErrTooLong):
		return wire.CodeLineTooLong
	case errors.Is(err, errTruncatedLine):
		return wire.CodeTruncatedLine
	case errors.Is(err, errIdleTimeout):
		return wire.CodeIdleTimeout
	case errors.Is(err, errShuttingDown):
		return wire.CodeShuttingDown
	}
	return ""
}

// health is the daemon's liveness/readiness state, served on -metrics-addr.
// Liveness is the process being up; readiness flips false the moment
// draining begins — before the listener closes — so a load balancer stops
// routing to a daemon that is about to reject.
type health struct {
	ready atomic.Bool
}

func (h *health) setReady(v bool) { h.ready.Store(v) }

func (h *health) healthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (h *health) readyz(w http.ResponseWriter, _ *http.Request) {
	if h.ready.Load() {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "draining")
}

// connShedRetryMS is the retry floor handed to connections shed at the
// limit. Deliberately modest: connection slots churn faster than queue
// slots, and the client adds jitter on top (it must — see
// server.OverloadError.RetryAfter).
const connShedRetryMS = 100

// tcpDaemon serves the line protocol over TCP with a bounded connection
// count and a bounded shutdown.
type tcpDaemon struct {
	srv          *server.Server
	ln           net.Listener
	idle         time.Duration
	maxLine      int
	drainTimeout time.Duration
	health       *health
	hook         func(string) bool // faultinject; nil in production

	sem      chan struct{} // connection slots
	shutdown chan struct{}
	shutOnce sync.Once
	wg       sync.WaitGroup
}

func newTCPDaemon(srv *server.Server, ln net.Listener, h *health, idle time.Duration, maxConns, maxLine int, drainTimeout time.Duration) *tcpDaemon {
	if maxConns <= 0 {
		maxConns = 256
	}
	return &tcpDaemon{
		srv:          srv,
		ln:           ln,
		idle:         idle,
		maxLine:      maxLine,
		drainTimeout: drainTimeout,
		health:       h,
		sem:          make(chan struct{}, maxConns),
		shutdown:     make(chan struct{}),
	}
}

// shutdownNow begins shutdown: readiness flips first (load balancers stop
// routing), then the shutdown latch trips (open connections' reads
// unblock), then the listener closes (no new connections). Idempotent.
func (d *tcpDaemon) shutdownNow() {
	d.shutOnce.Do(func() {
		d.health.setReady(false)
		close(d.shutdown)
		d.ln.Close()
	})
}

// run accepts connections until shutdownNow (or a fatal accept error),
// then drains: the server stops admitting and force-cancels in-flight work
// at the drain deadline *concurrently* with connection teardown — this is
// the fix for the historical drain hang, where wg.Wait() blocked forever on
// a connection idle in Scan. Returns server.ErrDrainTimeout when the drain
// had to force-cancel.
func (d *tcpDaemon) run() error {
	for {
		conn, aerr := d.ln.Accept()
		if aerr != nil {
			break
		}
		shed := d.hook != nil && d.hook(faultinject.PointConnAccept)
		if !shed {
			select {
			case d.sem <- struct{}{}:
			default:
				shed = true
			}
		}
		if shed {
			d.shedConn(conn)
			continue
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer func() { <-d.sem }()
			d.serveConn(conn)
		}()
	}
	d.shutdownNow()
	// Drain concurrently with connection teardown: in-flight Submits can
	// only settle once the server cancels them, and idle reads only
	// unblock via the shutdown latch — neither may wait on the other.
	ctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- d.srv.Drain(ctx) }()
	d.wg.Wait()
	return <-drained
}

// shedConn answers an over-limit connection with one typed report and
// closes it: the client learns it was capacity, not protocol, and retries
// elsewhere-in-time instead of hammering reconnects.
func (d *tcpDaemon) shedConn(conn net.Conn) {
	resp := wireResponse{
		V:            wire.Version,
		Outcome:      wire.OutcomeShed,
		ErrorCode:    wire.CodeTooManyConnections,
		RetryAfterMS: connShedRetryMS,
		Error:        fmt.Sprintf("connection limit %d reached", cap(d.sem)),
	}
	if b, err := wire.AppendResponse(nil, &resp); err == nil {
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		conn.Write(append(b, '\n'))
	}
	conn.Close()
}

// serveConn runs one connection's request loop. A goroutine watches the
// shutdown latch and pokes the read deadline, so a connection blocked in
// Read observes shutdown immediately instead of at its idle deadline.
func (d *tcpDaemon) serveConn(conn net.Conn) {
	defer conn.Close()
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-d.shutdown:
			conn.SetReadDeadline(time.Now())
		case <-connDone:
		}
	}()
	cr := &connReader{nc: conn, idle: d.idle, shutdown: d.shutdown, hook: d.hook}
	serveScanner(d.srv, newWireScanner(cr, d.maxLine), conn)
}

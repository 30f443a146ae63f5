// Package client is the resilient client for the telamallocd line protocol
// (internal/wire, DESIGN.md §12): the piece a production compiler links so
// that a shed, a restart, or a lost TCP connection becomes a retry or a
// typed error instead of a user-visible compile failure.
//
// The contract is exactly-once terminal outcomes: every Submit call ends in
// precisely one of
//
//   - a wire report (solved, degraded, failed, cancelled, or a permanent
//     rejection such as bad_request);
//   - a typed retryable-condition error after the retry budget is spent
//     (ErrRetriesExhausted, wrapping the last cause);
//   - a typed *AmbiguousError, when the request had been fully written but
//     the connection died (or the caller gave up) before the reply arrived
//     — the solve may or may not have executed, and the client refuses to
//     guess.
//
// Submit never silently resends a request that might already have been
// received: only requests that provably never formed a complete line on the
// wire are retried automatically. Allocation is pure, so a caller that can
// tolerate duplicate solves may retry an ambiguous outcome itself; the
// client keeps that decision above the transport where it belongs.
//
// Retries (shed requests, refused dials, draining daemons) back off
// exponentially with full jitter, honoring the server's retry_after_ms as a
// floor: wait = floor + uniform[0, min(MaxBackoff, BaseBackoff<<attempt)).
// A draining daemon is closing the connection it rejected on, so that
// retry always dials afresh. The caller's context deadline propagates into
// each attempt's wire timeout_ms, so the server stops working on an answer
// nobody is waiting for.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"telamalloc/internal/wire"
)

// Report is the terminal wire report a successful Submit returns.
type Report = wire.Response

// Request is one allocation request. ID is optional; when empty the client
// generates one. IDs must be unique among a client's in-flight requests —
// the line protocol correlates replies by id.
type Request struct {
	ID       string
	Name     string
	Memory   int64
	Buffers  []wire.Buffer
	MaxSteps int64
	// Timeout caps the server-side budget for this request. The caller's
	// context deadline, when sooner, shrinks it further at each attempt.
	Timeout time.Duration
	// Priority selects the daemon's admission class: "interactive",
	// "batch", or "background" (empty = batch). Unknown values are
	// rejected by the daemon with bad_request — a permanent error.
	Priority string
	// Tenant attributes the request to a fairness domain for the daemon's
	// per-tenant quotas. A shed priced against this tenant's own quota
	// (error_code tenant_overloaded) is retried like any other shed,
	// honouring the tenant-specific retry_after_ms floor — the floor is
	// what keeps one throttled tenant from hammering the daemon while
	// other tenants' traffic flows.
	Tenant string
}

// Config tunes a Client. Only Addr is required.
type Config struct {
	// Addr is the daemon's TCP address.
	Addr string
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds each request write (default 10s). A write that
	// times out part-way is retried safely: an incomplete line is never
	// parsed by the daemon.
	WriteTimeout time.Duration
	// BaseBackoff and MaxBackoff shape the jittered exponential backoff
	// (defaults 10ms and 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds Submit's total attempts across sheds, redials,
	// and reconnects (default 8; negative = retry until the context
	// ends).
	MaxAttempts int
	// Seed makes the jitter deterministic for tests (0 = time-seeded).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	return c
}

// Typed terminal errors.
var (
	// ErrClosed reports Submit on a closed client.
	ErrClosed = errors.New("client: closed")
	// ErrAmbiguous is wrapped by *AmbiguousError: the request was fully
	// written but no reply arrived. The solve may have executed.
	ErrAmbiguous = errors.New("client: ambiguous outcome: request may have executed, reply lost")
	// ErrRetriesExhausted reports that MaxAttempts retryable failures
	// (sheds, refused dials, draining daemons) occurred in a row; it
	// wraps the last cause.
	ErrRetriesExhausted = errors.New("client: retries exhausted")
	// ErrDuplicateID reports a Submit whose ID collides with a request
	// still in flight on the same connection.
	ErrDuplicateID = errors.New("client: duplicate in-flight request id")
)

// AmbiguousError is the typed may-have-executed outcome. It wraps both
// ErrAmbiguous and the transport-level cause, so errors.Is works against
// either.
type AmbiguousError struct {
	// ID is the wire id the lost reply would have carried.
	ID string
	// Cause is what ended the wait: the connection error or the caller's
	// context cause.
	Cause error
}

func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("%v (id %q): %v", ErrAmbiguous, e.ID, e.Cause)
}

func (e *AmbiguousError) Unwrap() []error { return []error{ErrAmbiguous, e.Cause} }

// maxLine mirrors the daemon's report-line cap.
const maxLine = 1 << 26

// netConn is one live connection: a writer (serialised by wmu), a reader
// goroutine demultiplexing reports by id, and a broken latch every pending
// Submit watches.
type netConn struct {
	nc  net.Conn
	wmu sync.Mutex // serialises request writes

	pmu     sync.Mutex
	pending map[string]chan wire.Response

	broken     chan struct{}
	brokenOnce sync.Once
	err        error // set before broken closes
	// retired is set once the daemon announced, with a draining
	// rejection, that it is closing this connection. It is set before the
	// rejection is delivered, so the retry that rejection triggers always
	// dials afresh instead of racing the close on the old connection.
	retired atomic.Bool
}

// fail latches the connection as broken. Every pending and future waiter
// observes it; the underlying conn is closed so the reader unblocks too.
func (cn *netConn) fail(err error) {
	cn.brokenOnce.Do(func() {
		cn.err = err
		close(cn.broken)
		cn.nc.Close()
	})
}

// register claims id on this connection. False means a duplicate in-flight
// id.
func (cn *netConn) register(id string) (chan wire.Response, bool) {
	ch := make(chan wire.Response, 1)
	cn.pmu.Lock()
	defer cn.pmu.Unlock()
	if _, dup := cn.pending[id]; dup {
		return nil, false
	}
	cn.pending[id] = ch
	return ch, true
}

func (cn *netConn) unregister(id string) {
	cn.pmu.Lock()
	delete(cn.pending, id)
	cn.pmu.Unlock()
}

// readLoop demultiplexes report lines to waiting Submits. Reports without
// an id are connection-level events (idle timeout, shutdown, oversized
// line); they explain the EOF that follows, so they become the broken
// latch's cause.
func (c *Client) readLoop(cn *netConn) {
	sc := bufio.NewScanner(cn.nc)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	var connReport *wire.Response
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp wire.Response
		if err := wire.DecodeResponse(line, &resp); err != nil {
			continue // not ours to interpret; correlation is impossible
		}
		if resp.ID == "" {
			r := resp
			connReport = &r
			continue
		}
		if resp.ErrorCode == wire.CodeDraining {
			cn.retired.Store(true)
		}
		cn.pmu.Lock()
		ch := cn.pending[resp.ID]
		delete(cn.pending, resp.ID)
		cn.pmu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	err := sc.Err()
	switch {
	case connReport != nil:
		cause := fmt.Errorf("client: connection closed by daemon: %s (%s)", connReport.ErrorCode, connReport.Error)
		if err != nil {
			cause = fmt.Errorf("%v; read: %w", cause, err)
		}
		cn.fail(cause)
	case err != nil:
		cn.fail(fmt.Errorf("client: connection lost: %w", err))
	default:
		cn.fail(errors.New("client: connection closed by daemon"))
	}
}

// Client is a resilient telamallocd client. Safe for concurrent use; all
// Submits multiplex over one connection, re-established on demand.
type Client struct {
	cfg Config
	jit *jitter

	mu     sync.Mutex
	cur    *netConn
	closed bool

	seq   atomic.Uint64
	dials atomic.Int64
}

// Dial builds a client for addr. The first connection is established
// lazily by Submit — a daemon that is down at Dial time is a retryable
// condition, not a constructor failure; that is the point of this package.
func Dial(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("client: Config.Addr is required")
	}
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, jit: newJitter(cfg.Seed)}, nil
}

// Close tears down the current connection. In-flight Submits end with an
// *AmbiguousError (their replies can no longer arrive); later Submits
// return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cn := c.cur
	c.cur = nil
	c.mu.Unlock()
	if cn != nil {
		cn.fail(ErrClosed)
	}
	return nil
}

// Dials counts connection attempts that succeeded (diagnostic; tests use
// it to assert reconnection happened).
func (c *Client) Dials() int64 { return c.dials.Load() }

// getConn returns the live connection, dialing a fresh one if the previous
// broke or was retired. A retired connection is left to its read loop:
// replies to requests already on it still arrive until the daemon closes it.
func (c *Client) getConn() (*netConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.cur != nil {
		select {
		case <-c.cur.broken:
			c.cur = nil // fall through to redial
		default:
			if !c.cur.retired.Load() {
				return c.cur, nil
			}
			c.cur = nil
		}
	}
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.cfg.Addr, err)
	}
	cn := &netConn{nc: nc, pending: make(map[string]chan wire.Response), broken: make(chan struct{})}
	c.cur = cn
	c.dials.Add(1)
	go c.readLoop(cn)
	return cn, nil
}

// Submit runs one request to its single terminal outcome: a wire report, a
// typed *AmbiguousError, ErrRetriesExhausted, or the context's cause. See
// the package comment for the exact contract.
func (c *Client) Submit(ctx context.Context, req Request) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id := req.ID
	if id == "" {
		id = "c" + strconv.FormatUint(c.seq.Add(1), 10)
	}
	var lastErr error
	for attempt := 0; c.cfg.MaxAttempts < 0 || attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, c.ctxError(ctx, lastErr)
		}
		resp, floor, err := c.attempt(ctx, req, id)
		switch {
		case err == nil && resp != nil:
			return resp, nil
		case err != nil && !retryable(err):
			return nil, err
		}
		lastErr = err
		if serr := sleep(ctx, c.jit.delay(attempt, c.cfg.BaseBackoff, c.cfg.MaxBackoff, floor)); serr != nil {
			return nil, c.ctxError(ctx, lastErr)
		}
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, c.cfg.MaxAttempts, lastErr)
}

// ctxError is the terminal error for a context that ended between
// attempts: plain context cause (nothing of this request can be in flight
// — attempt() already settled any written request).
func (c *Client) ctxError(ctx context.Context, lastErr error) error {
	cause := context.Cause(ctx)
	if lastErr != nil {
		return fmt.Errorf("%w (last attempt: %v)", cause, lastErr)
	}
	return cause
}

// retryableError marks transient attempt failures (shed, refused dial,
// draining daemon, connection broken before the request was written).
type retryableError struct{ cause error }

func (e *retryableError) Error() string { return e.cause.Error() }
func (e *retryableError) Unwrap() error { return e.cause }

func retryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re)
}

// attempt makes one wire attempt. Returns exactly one of: a terminal
// report; a *retryableError (with a retry floor when the server priced
// one); or a terminal error (ambiguous, duplicate id, closed).
func (c *Client) attempt(ctx context.Context, req Request, id string) (resp *Report, floor time.Duration, err error) {
	cn, err := c.getConn()
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return nil, 0, err
		}
		return nil, 0, &retryableError{cause: err}
	}

	wreq := wire.Request{
		V:        wire.Version,
		ID:       id,
		Name:     req.Name,
		Memory:   req.Memory,
		Buffers:  req.Buffers,
		MaxSteps: req.MaxSteps,
		Priority: req.Priority,
		Tenant:   req.Tenant,
	}
	// Deadline propagation: the effective server-side pot is the caller's
	// request timeout shrunk by the context's remaining time, recomputed
	// per attempt — a retry after backoff asks for less, never more.
	budget := req.Timeout
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, 0, c.ctxError(ctx, nil)
		}
		if budget == 0 || remaining < budget {
			budget = remaining
		}
	}
	if budget > 0 {
		ms := budget.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		wreq.TimeoutMS = ms
	}

	// Sized for the usual line: ~48 bytes a buffer plus the scalars.
	line := wire.AppendRequest(make([]byte, 0, 128+len(id)+len(req.Name)+len(req.Priority)+len(req.Tenant)+48*len(req.Buffers)), &wreq)
	line = append(line, '\n')

	ch, ok := cn.register(id)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}

	cn.wmu.Lock()
	cn.nc.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	n, werr := cn.nc.Write(line)
	cn.wmu.Unlock()
	if werr != nil {
		cn.unregister(id)
		cn.fail(fmt.Errorf("client: write: %w", werr))
		if n < len(line) {
			// The daemon never saw a complete line: it cannot have parsed
			// this request (a truncated line is rejected, not executed), so
			// resending is safe.
			return nil, 0, &retryableError{cause: fmt.Errorf("client: connection lost before request was sent: %w", werr)}
		}
		// Every byte including the newline was handed to the kernel: the
		// daemon may have executed the request. Refuse to guess.
		return nil, 0, &AmbiguousError{ID: id, Cause: werr}
	}

	select {
	case r := <-ch:
		return classify(&r)
	case <-cn.broken:
		// readLoop hands a reply to ch before it latches the connection
		// broken, so a reply that did arrive is already buffered here; the
		// select above may still have picked this case first.
		if r, ok := delivered(ch); ok {
			return classify(&r)
		}
		// Fully written, reply never arrived: the defining ambiguous case.
		return nil, 0, &AmbiguousError{ID: id, Cause: cn.err}
	case <-ctx.Done():
		cn.unregister(id)
		if r, ok := delivered(ch); ok {
			return classify(&r)
		}
		// The request is on the wire and the caller is gone. The reply (if
		// any) will be discarded by the read loop; the outcome is ambiguous
		// by construction.
		return nil, 0, &AmbiguousError{ID: id, Cause: context.Cause(ctx)}
	}
}

// delivered returns a reply already buffered on ch without blocking.
func delivered(ch chan wire.Response) (wire.Response, bool) {
	select {
	case r := <-ch:
		return r, true
	default:
		return wire.Response{}, false
	}
}

// classify sorts a terminal report into served / retryable.
func classify(r *Report) (*Report, time.Duration, error) {
	switch {
	case r.Outcome == wire.OutcomeShed:
		floor := time.Duration(r.RetryAfterMS * float64(time.Millisecond))
		return nil, floor, &retryableError{cause: fmt.Errorf("client: shed by server: %s", r.Error)}
	case r.Outcome == wire.OutcomeRejected && wire.RetryableCode(r.ErrorCode):
		return nil, 0, &retryableError{cause: fmt.Errorf("client: rejected (%s): %s", r.ErrorCode, r.Error)}
	}
	return r, 0, nil
}

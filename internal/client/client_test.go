package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"telamalloc/internal/wire"
)

// fake is a scripted daemon speaking the v1 line protocol, so tests control
// exactly when replies arrive, are withheld, or connections die.
type fake struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	reqs  []wire.Request
	times []time.Time
}

func newFake(t *testing.T) *fake {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fake{t: t, ln: ln}
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fake) addr() string { return f.ln.Addr().String() }

// serve accepts connections and runs handler per connection (sequentially,
// so scripts stay deterministic) until the listener closes.
func (f *fake) serve(handler func(conn net.Conn, sc *bufio.Scanner)) {
	go func() {
		for {
			conn, err := f.ln.Accept()
			if err != nil {
				return
			}
			sc := bufio.NewScanner(conn)
			handler(conn, sc)
			conn.Close()
		}
	}()
}

// readReq scans one request line, recording it and its arrival time.
func (f *fake) readReq(sc *bufio.Scanner) (wire.Request, bool) {
	if !sc.Scan() {
		return wire.Request{}, false
	}
	var req wire.Request
	if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
		f.t.Errorf("fake: bad request line %q: %v", sc.Text(), err)
		return wire.Request{}, false
	}
	f.mu.Lock()
	f.reqs = append(f.reqs, req)
	f.times = append(f.times, time.Now())
	f.mu.Unlock()
	return req, true
}

func (f *fake) requests() []wire.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wire.Request(nil), f.reqs...)
}

func (f *fake) arrivals() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.times...)
}

func reply(conn net.Conn, resp wire.Response) {
	resp.V = wire.Version
	b, _ := json.Marshal(resp)
	conn.Write(append(b, '\n'))
}

func solvedFor(req wire.Request) wire.Response {
	return wire.Response{ID: req.ID, Outcome: wire.OutcomeSolved, Winner: "greedy", Offsets: []int64{0, 4}}
}

func mustDial(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var oneBuffer = []wire.Buffer{{Start: 0, End: 4, Size: 4}}

func TestSubmitSolved(t *testing.T) {
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			reply(conn, solvedFor(req))
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 1})

	resp, err := c.Submit(context.Background(), Request{ID: "r1", Memory: 8, Buffers: oneBuffer})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != wire.OutcomeSolved || resp.ID != "r1" || len(resp.Offsets) != 2 {
		t.Errorf("report: %+v", resp)
	}
	reqs := f.requests()
	if len(reqs) != 1 || reqs[0].V != wire.Version || reqs[0].ID != "r1" {
		t.Errorf("daemon saw requests %+v, want one v1 request with id r1", reqs)
	}

	// A second request with a generated id reuses the connection.
	if _, err := c.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer}); err != nil {
		t.Fatal(err)
	}
	if got := c.Dials(); got != 1 {
		t.Errorf("Dials = %d, want 1 (connection must be reused)", got)
	}
	if reqs := f.requests(); len(reqs) != 2 || reqs[1].ID == "" {
		t.Errorf("second request must carry a generated id: %+v", reqs)
	}
}

// The shed→retry loop must respect the server's floor on every retry and
// eventually serve the solve.
func TestShedRetryHonorsFloor(t *testing.T) {
	const floorMS = 40
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			if len(f.requests()) <= 2 {
				reply(conn, wire.Response{ID: req.ID, Outcome: wire.OutcomeShed,
					ErrorCode: wire.CodeOverloaded, RetryAfterMS: floorMS, Error: "overloaded"})
				continue
			}
			reply(conn, solvedFor(req))
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 7, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})

	resp, err := c.Submit(context.Background(), Request{ID: "r1", Memory: 8, Buffers: oneBuffer})
	if err != nil || resp.Outcome != wire.OutcomeSolved {
		t.Fatalf("resp %+v err %v", resp, err)
	}
	at := f.arrivals()
	if len(at) != 3 {
		t.Fatalf("daemon saw %d requests, want 3 (2 sheds + 1 solve)", len(at))
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < floorMS*time.Millisecond {
			t.Errorf("retry %d arrived %v after the shed, violating the %dms floor", i, gap, floorMS)
		}
	}
}

func TestRetriesExhaustedIsTyped(t *testing.T) {
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			reply(conn, wire.Response{ID: req.ID, Outcome: wire.OutcomeShed,
				ErrorCode: wire.CodeOverloaded, RetryAfterMS: 1, Error: "overloaded"})
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 3, MaxAttempts: 3,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})

	_, err := c.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if got := len(f.requests()); got != 3 {
		t.Errorf("daemon saw %d attempts, want exactly MaxAttempts=3", got)
	}
}

// A connection that dies after the request was fully written must surface
// as the typed ambiguous outcome — never a silent retry, never a hang.
func TestAmbiguousOnConnDropAfterWrite(t *testing.T) {
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		f.readReq(sc) // swallow the request, reply with nothing: conn closes on return
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 5})

	_, err := c.Submit(context.Background(), Request{ID: "lost", Memory: 8, Buffers: oneBuffer})
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("err = %v, want ErrAmbiguous", err)
	}
	var amb *AmbiguousError
	if !errors.As(err, &amb) || amb.ID != "lost" || amb.Cause == nil {
		t.Errorf("ambiguous error detail: %#v", err)
	}
	if got := len(f.requests()); got != 1 {
		t.Errorf("daemon saw %d requests, want 1 — an ambiguous outcome must NOT be auto-retried", got)
	}
}

// After the daemon restarts, the next Submit must transparently reconnect.
func TestReconnectAfterRestart(t *testing.T) {
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		req, ok := f.readReq(sc)
		if !ok {
			return
		}
		reply(conn, solvedFor(req)) // one request per connection, then "crash"
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 9, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})

	if _, err := c.Submit(context.Background(), Request{ID: "a", Memory: 8, Buffers: oneBuffer}); err != nil {
		t.Fatal(err)
	}
	// Wait until the client has observed the connection loss, so the next
	// Submit deterministically takes the redial path.
	c.mu.Lock()
	cn := c.cur
	c.mu.Unlock()
	select {
	case <-cn.broken:
	case <-time.After(5 * time.Second):
		t.Fatal("client never noticed the daemon closing the connection")
	}

	resp, err := c.Submit(context.Background(), Request{ID: "b", Memory: 8, Buffers: oneBuffer})
	if err != nil || resp.Outcome != wire.OutcomeSolved {
		t.Fatalf("post-restart submit: resp %+v err %v", resp, err)
	}
	if got := c.Dials(); got != 2 {
		t.Errorf("Dials = %d, want 2 (one reconnect)", got)
	}
}

// A draining daemon answers typed rejected/draining; the client must treat
// it as retryable and succeed against the restarted daemon.
func TestDrainingRejectionRetries(t *testing.T) {
	first := true
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		req, ok := f.readReq(sc)
		if !ok {
			return
		}
		if first {
			first = false
			reply(conn, wire.Response{ID: req.ID, Outcome: wire.OutcomeRejected,
				ErrorCode: wire.CodeDraining, Error: "draining"})
			return // and the connection closes, like a real shutdown
		}
		reply(conn, solvedFor(req))
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 11, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})

	resp, err := c.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer})
	if err != nil || resp.Outcome != wire.OutcomeSolved {
		t.Fatalf("resp %+v err %v", resp, err)
	}
	if got := len(f.requests()); got < 2 {
		t.Errorf("daemon saw %d requests, want ≥ 2 (rejected then retried)", got)
	}
}

// A reply the daemon sends right before closing the connection was
// delivered: it must surface as that reply, never as an ambiguous outcome,
// however the waiter's select orders the reply and the broken latch. The
// fake answers every connection's one request and hangs up, many times
// over, so a coin-flip select would fail almost surely. Each round dials a
// fresh client: reusing a connection the fake already hung up on would
// make the next request genuinely ambiguous.
func TestReplyBeforeCloseIsDelivered(t *testing.T) {
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		if req, ok := f.readReq(sc); ok {
			reply(conn, solvedFor(req))
		}
	})
	const rounds = 100
	for i := 0; i < rounds; i++ {
		c := mustDial(t, Config{Addr: f.addr(), Seed: 17})
		resp, err := c.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer})
		c.Close()
		if err != nil || resp.Outcome != wire.OutcomeSolved {
			t.Fatalf("round %d: resp %+v err %v", i, resp, err)
		}
	}
	if got := len(f.requests()); got != rounds {
		t.Errorf("daemon saw %d requests, want %d (one per round, no resends)", got, rounds)
	}
}

// After a draining rejection the retry must go out on a fresh connection,
// never on the one the daemon is closing. Here the draining connection
// stays open and unread — the window between the rejection and the close,
// stretched to forever — so a retry sent on it would never be answered.
func TestDrainingConnectionIsNotReused(t *testing.T) {
	f := newFake(t)
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	go func() {
		for first := true; ; first = false {
			conn, err := f.ln.Accept()
			if err != nil {
				return
			}
			sc := bufio.NewScanner(conn)
			if first {
				if req, ok := f.readReq(sc); ok {
					reply(conn, wire.Response{ID: req.ID, Outcome: wire.OutcomeRejected,
						ErrorCode: wire.CodeDraining, Error: "draining"})
				}
				go func() { <-hold; conn.Close() }()
				continue
			}
			go func() {
				defer conn.Close()
				for {
					req, ok := f.readReq(sc)
					if !ok {
						return
					}
					reply(conn, solvedFor(req))
				}
			}()
		}
	}()
	c := mustDial(t, Config{Addr: f.addr(), Seed: 19, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Submit(ctx, Request{Memory: 8, Buffers: oneBuffer})
	if err != nil || resp.Outcome != wire.OutcomeSolved {
		t.Fatalf("resp %+v err %v", resp, err)
	}
	if got := c.Dials(); got != 2 {
		t.Errorf("Dials = %d, want 2 (the retry must redial)", got)
	}
}

// The caller's context deadline must reach the daemon as timeout_ms, and
// an explicit Request.Timeout must only shrink it.
func TestDeadlinePropagation(t *testing.T) {
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			reply(conn, solvedFor(req))
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 13})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := c.Submit(ctx, Request{ID: "d1", Memory: 8, Buffers: oneBuffer}); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	if _, err := c.Submit(ctx2, Request{ID: "d2", Memory: 8, Buffers: oneBuffer, Timeout: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	reqs := f.requests()
	if len(reqs) != 2 {
		t.Fatalf("daemon saw %d requests, want 2", len(reqs))
	}
	if ms := reqs[0].TimeoutMS; ms <= 0 || ms > 300 {
		t.Errorf("d1 timeout_ms = %d, want in (0, 300]", ms)
	}
	if ms := reqs[1].TimeoutMS; ms <= 0 || ms > 50 {
		t.Errorf("d2 timeout_ms = %d, want in (0, 50] (request timeout shrinks the pot)", ms)
	}
}

func TestDuplicateInFlightID(t *testing.T) {
	release := make(chan struct{})
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			if req.ID == "dup" && len(f.requests()) == 1 {
				<-release // park the first "dup" unanswered
			}
			reply(conn, solvedFor(req))
		}
	})
	defer close(release)
	c := mustDial(t, Config{Addr: f.addr(), Seed: 15})

	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), Request{ID: "dup", Memory: 8, Buffers: oneBuffer})
		firstDone <- err
	}()
	// Wait for the first request to be in flight on the wire.
	deadline := time.Now().Add(5 * time.Second)
	for len(f.requests()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the daemon")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := c.Submit(context.Background(), Request{ID: "dup", Memory: 8, Buffers: oneBuffer})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("second in-flight submit with same id: err = %v, want ErrDuplicateID", err)
	}
}

func TestSubmitAfterCloseAndDialFailure(t *testing.T) {
	f := newFake(t)
	c := mustDial(t, Config{Addr: f.addr(), Seed: 17, MaxAttempts: 2,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	c.Close()
	if _, err := c.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}

	// A dead address is a retryable condition that must exhaust typed, not
	// hang or crash.
	f.ln.Close()
	c2 := mustDial(t, Config{Addr: f.addr(), Seed: 19, MaxAttempts: 2,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	_, err := c2.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("dead daemon: err = %v, want ErrRetriesExhausted", err)
	}
}

// The exhausted-retries error must expose the LAST attempt's cause through
// the errors.Is/As chain — "retries exhausted" alone tells an operator
// nothing about what kept failing.
func TestRetriesExhaustedWrapsLastCause(t *testing.T) {
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			reply(conn, wire.Response{ID: req.ID, Outcome: wire.OutcomeShed,
				ErrorCode: wire.CodeOverloaded, RetryAfterMS: 1, Error: "queue full (depth 7)"})
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 21, MaxAttempts: 2,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})

	_, err := c.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	var re *retryableError
	if !errors.As(err, &re) {
		t.Fatalf("last attempt's typed cause not in the chain: %v", err)
	}
	if !strings.Contains(err.Error(), "queue full (depth 7)") {
		t.Errorf("server's shed message lost from the chain: %v", err)
	}

	// Same contract when the retryable condition is a failed dial: the net
	// error must survive in the chain.
	f.ln.Close()
	c2 := mustDial(t, Config{Addr: f.addr(), Seed: 23, MaxAttempts: 2,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	_, err = c2.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("dead daemon: err = %v, want ErrRetriesExhausted", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		t.Errorf("dial failure's net.Error not in the chain: %v", err)
	}
}

// Backoff sleeps must abort the moment the caller's context ends — an
// abandoned retry may not park its goroutine for the full delay.
func TestBackoffSleepAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := sleep(ctx, time.Hour)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sleep held its goroutine %v after cancel", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("sleep returned %v, want the context's cause", err)
	}
	// An already-dead context never sleeps at all.
	if err := sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("sleep on dead context returned %v", err)
	}

	// End to end: a server-priced floor far beyond the caller's patience
	// must not delay Submit's return past the cancel.
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			reply(conn, wire.Response{ID: req.ID, Outcome: wire.OutcomeShed,
				ErrorCode: wire.CodeOverloaded, RetryAfterMS: 3_600_000, Error: "overloaded"})
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 25})
	sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer scancel()
	start = time.Now()
	_, err = c.Submit(sctx, Request{Memory: 8, Buffers: oneBuffer})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Submit sat in backoff %v after its context expired", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled-in-backoff Submit returned %v, want the context's cause", err)
	}
}

// Priority and tenant must reach the daemon verbatim on the wire, and be
// absent (not empty strings) when unset.
func TestPriorityAndTenantForwarded(t *testing.T) {
	var lines [][]byte
	var mu sync.Mutex
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			if !sc.Scan() {
				return
			}
			mu.Lock()
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
			mu.Unlock()
			var req wire.Request
			if err := json.Unmarshal(lines[len(lines)-1], &req); err != nil {
				f.t.Errorf("bad line: %v", err)
				return
			}
			reply(conn, solvedFor(req))
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 27})

	if _, err := c.Submit(context.Background(), Request{ID: "p1", Memory: 8, Buffers: oneBuffer,
		Priority: "interactive", Tenant: "team-a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), Request{ID: "p2", Memory: 8, Buffers: oneBuffer}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("daemon saw %d lines, want 2", len(lines))
	}
	var r1 wire.Request
	json.Unmarshal(lines[0], &r1)
	if r1.Priority != "interactive" || r1.Tenant != "team-a" {
		t.Errorf("fields did not reach the wire: %s", lines[0])
	}
	for _, key := range []string{"priority", "tenant"} {
		if strings.Contains(string(lines[1]), `"`+key+`"`) {
			t.Errorf("unset %s serialised onto the wire (breaks old daemons expecting omitted optionals): %s", key, lines[1])
		}
	}
}

// A tenant_overloaded shed is retryable with the server's floor — the
// daemon as a whole may be fine, only this tenant's bucket is empty.
func TestTenantOverloadedRetries(t *testing.T) {
	const floorMS = 30
	f := newFake(t)
	f.serve(func(conn net.Conn, sc *bufio.Scanner) {
		for {
			req, ok := f.readReq(sc)
			if !ok {
				return
			}
			if len(f.requests()) == 1 {
				reply(conn, wire.Response{ID: req.ID, Outcome: wire.OutcomeShed,
					ErrorCode: wire.CodeTenantOverloaded, RetryAfterMS: floorMS, Error: "tenant over quota"})
				continue
			}
			reply(conn, solvedFor(req))
		}
	})
	c := mustDial(t, Config{Addr: f.addr(), Seed: 29, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})

	resp, err := c.Submit(context.Background(), Request{Memory: 8, Buffers: oneBuffer, Tenant: "hog"})
	if err != nil || resp.Outcome != wire.OutcomeSolved {
		t.Fatalf("resp %+v err %v", resp, err)
	}
	at := f.arrivals()
	if len(at) != 2 {
		t.Fatalf("daemon saw %d requests, want 2", len(at))
	}
	if gap := at[1].Sub(at[0]); gap < floorMS*time.Millisecond {
		t.Errorf("retry arrived %v after the tenant shed, violating the %dms floor", gap, floorMS)
	}
}

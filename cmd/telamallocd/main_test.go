package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telamalloc/internal/server"
)

// decodeReports parses every line serveStream wrote and indexes them by id.
func decodeReports(t *testing.T, out *bytes.Buffer) map[string]wireResponse {
	t.Helper()
	byID := map[string]wireResponse{}
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		var resp wireResponse
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("unparseable report line %q: %v", sc.Text(), err)
		}
		byID[resp.ID] = resp
	}
	return byID
}

func TestServeStreamOutcomes(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8, MaxSteps: 200000})
	defer srv.Close()

	in := strings.Join([]string{
		// Two non-overlapping 4-byte buffers in 8 bytes: trivially solvable.
		`{"id":"solve","memory":8,"buffers":[{"start":0,"end":4,"size":4},{"start":4,"end":8,"size":4}]}`,
		// Three concurrent 4-byte buffers in 8 bytes: provably infeasible,
		// served degraded via spill.
		`{"id":"spill","memory":8,"buffers":[{"start":0,"end":4,"size":4},{"start":0,"end":4,"size":4},{"start":0,"end":4,"size":4}]}`,
		// Memory 0 with a buffer: invalid problem, structured failure.
		`{"id":"bad-problem","memory":0,"buffers":[{"start":0,"end":4,"size":4}]}`,
		``, // blank lines are skipped, not answered
		`this is not json`,
	}, "\n") + "\n"

	var out bytes.Buffer
	serveStream(srv, strings.NewReader(in), &out, 0)
	byID := decodeReports(t, &out)
	if len(byID) != 4 {
		t.Fatalf("got %d reports (%v), want 4", len(byID), byID)
	}

	solve := byID["solve"]
	if solve.Outcome != "solved" || solve.Winner == "" {
		t.Errorf("solve report: %+v, want outcome solved with a winner", solve)
	}
	if len(solve.Offsets) != 2 || solve.Error != "" {
		t.Errorf("solve report carries offsets %v err %q", solve.Offsets, solve.Error)
	}

	spill := byID["spill"]
	if spill.Outcome != "degraded" || len(spill.Spilled) == 0 || spill.SpillCost <= 0 {
		t.Errorf("spill report: %+v, want degraded with spilled buffers", spill)
	}
	if spill.LowerBound <= spill.Memory {
		t.Errorf("degraded report must carry infeasibility evidence, got lower bound %d vs memory %d",
			spill.LowerBound, spill.Memory)
	}

	bad := byID["bad-problem"]
	if bad.Outcome != "failed" || bad.Error == "" {
		t.Errorf("bad-problem report: %+v, want failed with an error", bad)
	}

	// The non-JSON line has no id; it lands under the empty key.
	garbage := byID[""]
	if garbage.Outcome != "rejected" || !strings.Contains(garbage.Error, "bad request line") {
		t.Errorf("garbage line report: %+v, want rejected", garbage)
	}
}

func TestServeStreamRequestBudget(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()

	// A hard instance with a 1ms pot: the pipeline must come back with a
	// bounded budget verdict, not hang the stream.
	var lines []string
	var bufs []string
	for i := 0; i < 30; i++ {
		bufs = append(bufs, `{"start":0,"end":10,"size":7}`)
	}
	lines = append(lines,
		`{"id":"tight","memory":64,"timeout_ms":1,"buffers":[`+strings.Join(bufs, ",")+`]}`)
	var out bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveStream(srv, strings.NewReader(strings.Join(lines, "\n")+"\n"), &out, 0)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serveStream did not finish: request budget was not enforced")
	}
	byID := decodeReports(t, &out)
	tight := byID["tight"]
	// Either verdict is a legitimate bounded answer; hanging is the bug.
	if tight.Outcome != "degraded" && tight.Outcome != "failed" {
		t.Errorf("tight report: %+v, want a bounded degraded/failed verdict", tight)
	}
}

func TestHandleShedReport(t *testing.T) {
	// Park the only worker via the dequeue point so the queue fills, then
	// check the shed report shape (outcome + retry-after hint).
	gate := make(chan struct{})
	srv := server.New(server.Config{
		Workers:    1,
		QueueDepth: 1,
		// Identical requests on purpose: this test wants the queue to fill,
		// and singleflight would collapse the flood to one solve.
		DisableDedup: true,
		Hook: func(point string) bool {
			if point == "server:dequeue" {
				<-gate
			}
			return false
		},
	})
	// Cleanups run LIFO: the gate must open before Close drains the parked
	// worker, so register Close first.
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { close(gate) })

	// One submission parks in the worker and one sits in the queue; the
	// other eight must shed immediately.
	const submissions = 10
	results := make(chan wireResponse, submissions)
	for i := 0; i < submissions; i++ {
		go func(i int) {
			results <- handle(srv, wireRequest{
				ID:      fmt.Sprintf("r%d", i),
				Memory:  8,
				Buffers: []wireBuffer{{Start: 0, End: 4, Size: 4}},
			})
		}(i)
	}
	sawShed := false
	timeout := time.After(10 * time.Second)
	for got := 0; got < submissions-2 && !sawShed; got++ {
		select {
		case resp := <-results:
			if resp.Outcome != "shed" {
				continue
			}
			sawShed = true
			if resp.RetryAfterMS <= 0 {
				t.Errorf("shed report missing retry-after hint: %+v", resp)
			}
			if resp.Error == "" {
				t.Errorf("shed report missing error text: %+v", resp)
			}
		case <-timeout:
			t.Fatal("shed submissions did not return promptly; shedding must not wait on workers")
		}
	}
	if !sawShed {
		t.Fatal("queue of depth 1 with a parked worker never shed")
	}
}

func TestServeStreamVersioning(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()

	in := strings.Join([]string{
		// Explicit v:1 and omitted v are the same protocol.
		`{"v":1,"id":"explicit","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`,
		`{"id":"implicit","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`,
		// A future version must be rejected up front, fields unread.
		`{"v":2,"id":"future","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`,
		`{"v":-1,"id":"negative","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`,
	}, "\n") + "\n"

	var out bytes.Buffer
	serveStream(srv, strings.NewReader(in), &out, 0)
	byID := decodeReports(t, &out)
	if len(byID) != 4 {
		t.Fatalf("got %d reports (%v), want 4", len(byID), byID)
	}

	for _, id := range []string{"explicit", "implicit"} {
		resp := byID[id]
		if resp.Outcome != "solved" {
			t.Errorf("%s: outcome %q, want solved", id, resp.Outcome)
		}
		if resp.ErrorCode != "" {
			t.Errorf("%s: unexpected error_code %q", id, resp.ErrorCode)
		}
	}
	for _, id := range []string{"future", "negative"} {
		resp := byID[id]
		if resp.Outcome != "rejected" || resp.ErrorCode != "unsupported_version" {
			t.Errorf("%s: got outcome %q error_code %q, want rejected/unsupported_version",
				id, resp.Outcome, resp.ErrorCode)
		}
		if resp.Offsets != nil {
			t.Errorf("%s: rejected report must not carry offsets: %+v", id, resp)
		}
		if !strings.Contains(resp.Error, "version") {
			t.Errorf("%s: error text should name the version problem: %q", id, resp.Error)
		}
	}

	// Every report line, including rejections, declares the served version.
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		var raw map[string]any
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatalf("unparseable report line %q: %v", sc.Text(), err)
		}
		if v, ok := raw["v"].(float64); !ok || v != 1 {
			t.Errorf("report %q: \"v\" = %v, want 1 on every line", sc.Text(), raw["v"])
		}
	}
}

// TestServeStreamDeferredLines sends one problem three ways: as a compact
// line the codec's fast path parses, as a whitespace-separated line with an
// unknown field, and with an escaped id — the last two are decoded by
// encoding/json. All three must get the same canonical report, and the
// escaped id must come back intact.
func TestServeStreamDeferredLines(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8, MaxSteps: 200000})
	defer srv.Close()

	in := strings.Join([]string{
		`{"v":1,"id":"compact","memory":12,"buffers":[{"start":0,"end":4,"size":4},{"start":2,"end":6,"size":4,"align":4},{"start":3,"end":8,"size":4}]}`,
		`{ "v": 1, "id": "spaced", "memory": 12, "future_field": {"x": [1, 2]},` +
			` "buffers": [ {"start": 0, "end": 4, "size": 4}, {"size": 4, "start": 2, "end": 6, "align": 4}, {"start": 3, "end": 8, "size": 4} ] }`,
		`{"v":1,"id":"a\"b","memory":12,"buffers":[{"start":0,"end":4,"size":4},{"start":2,"end":6,"size":4,"align":4},{"start":3,"end":8,"size":4}]}`,
	}, "\n") + "\n"

	var out bytes.Buffer
	serveStream(srv, strings.NewReader(in), &out, 0)
	byID := decodeReports(t, &out)
	if len(byID) != 3 {
		t.Fatalf("got %d reports (%v), want 3", len(byID), byID)
	}
	compact, ok := byID["compact"]
	if !ok || compact.Outcome != "solved" || len(compact.Offsets) != 3 {
		t.Fatalf("compact report: %+v, want solved with 3 offsets", compact)
	}
	want := canonicalOfReport(&compact)
	for _, id := range []string{"spaced", `a"b`} {
		rep, ok := byID[id]
		if !ok {
			t.Errorf("no report echoes id %q: %v", id, byID)
			continue
		}
		if got := canonicalOfReport(&rep); !bytes.Equal(got, want) {
			t.Errorf("%q: canonical report %s, compact line got %s", id, got, want)
		}
	}
	if !bytes.Contains(out.Bytes(), []byte(`"id":"a\"b"`)) {
		t.Errorf("escaped id not echoed verbatim:\n%s", out.Bytes())
	}
}

func TestParseClassDepth(t *testing.T) {
	got, err := parseClassDepth("interactive=32,background=4")
	if err != nil {
		t.Fatal(err)
	}
	if got[server.PriorityInteractive] != 32 || got[server.PriorityBackground] != 4 || len(got) != 2 {
		t.Errorf("parsed %v", got)
	}
	if got, err := parseClassDepth(""); err != nil || got != nil {
		t.Errorf("empty spec: got %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{
		"realtime=4",       // unknown class
		"=4",               // empty class (would silently mean batch)
		"interactive=0",    // non-positive depth
		"interactive=-2",   //
		"interactive=four", // not a number
		"interactive",      // missing depth
	} {
		if _, err := parseClassDepth(bad); err == nil {
			t.Errorf("parseClassDepth(%q) accepted, want error", bad)
		}
	}
}

// In stream mode the -max-line cap applies too: a line over it gets exactly
// one typed rejected/line_too_long report, and shorter lines before it are
// served normally.
func TestServeStreamMaxLine(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	defer srv.Close()

	ok := `{"id":"ok","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`
	in := ok + "\n" + strings.Repeat("a", 4096) + "\n"
	var out bytes.Buffer
	serveStream(srv, strings.NewReader(in), &out, 256)

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d reports %q, want 2", len(lines), lines)
	}
	byID := decodeReports(t, &out)
	if got := byID["ok"]; got.Outcome != "solved" {
		t.Errorf("short line: %+v, want solved", got)
	}
	if got := byID[""]; got.Outcome != "rejected" || got.ErrorCode != "line_too_long" {
		t.Errorf("oversized line: %+v, want rejected/line_too_long", got)
	}
}

// Priority and tenant flow from the wire into the server, and an unknown
// priority is a typed bad_request — never silently downgraded.
func TestServeStreamPriorityAndTenant(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()

	in := strings.Join([]string{
		`{"id":"pi","priority":"interactive","tenant":"team-a","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`,
		`{"id":"pb","priority":"background","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`,
		`{"id":"typo","priority":"Interactive","memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	serveStream(srv, strings.NewReader(in), &out, 0)
	byID := decodeReports(t, &out)

	for _, id := range []string{"pi", "pb"} {
		if resp := byID[id]; resp.Outcome != "solved" {
			t.Errorf("%s: %+v, want solved", id, resp)
		}
	}
	typo := byID["typo"]
	if typo.Outcome != "rejected" || typo.ErrorCode != "bad_request" {
		t.Errorf("typo'd priority: got outcome %q error_code %q, want rejected/bad_request", typo.Outcome, typo.ErrorCode)
	}
	if !strings.Contains(typo.Error, "Interactive") {
		t.Errorf("rejection should echo the unknown class: %q", typo.Error)
	}
}

// A budget that dies in queue maps to failed/deadline_exceeded_in_queue on
// the wire, carrying the queue-wait evidence. The worker is gated so the
// doomed request deterministically waits out its 1ms budget in queue.
func TestHandleExpiredInQueue(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	var entered atomic.Bool
	srv := server.New(server.Config{
		Workers:      1,
		QueueDepth:   4,
		DisableDedup: true,
		CacheSize:    -1,
		Hook: func(point string) bool {
			if point == "server:dequeue" {
				entered.Store(true)
				<-gate
			}
			return false
		},
	})
	// Cleanups run LIFO: the gate must open before Close drains the parked
	// worker.
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(release)

	results := make(chan wireResponse, 2)
	submit := func(req wireRequest) {
		go func() { results <- handle(srv, req) }()
	}
	submit(wireRequest{ID: "occupy", Memory: 8, Buffers: []wireBuffer{{Start: 0, End: 4, Size: 4}}})
	deadline := time.Now().Add(5 * time.Second)
	for !entered.Load() {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the occupying request")
		}
		time.Sleep(time.Millisecond)
	}
	submit(wireRequest{ID: "doomed", TimeoutMS: 1, Memory: 8,
		Buffers: []wireBuffer{{Start: 0, End: 4, Size: 4}, {Start: 4, End: 8, Size: 4}}})
	for srv.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("doomed request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the 1ms budget die in queue
	release()

	byID := map[string]wireResponse{}
	for i := 0; i < 2; i++ {
		resp := <-results
		byID[resp.ID] = resp
	}
	if occupy := byID["occupy"]; occupy.Outcome != "solved" {
		t.Fatalf("occupying request: %+v", occupy)
	}
	doomed := byID["doomed"]
	if doomed.Outcome != "failed" || doomed.ErrorCode != "deadline_exceeded_in_queue" {
		t.Fatalf("doomed report: outcome %q error_code %q, want failed/deadline_exceeded_in_queue (%+v)",
			doomed.Outcome, doomed.ErrorCode, doomed)
	}
	if doomed.QueueWaitMS <= 0 {
		t.Errorf("expired report must carry the queue wait it burned: %+v", doomed)
	}
	if len(doomed.Offsets) != 0 {
		t.Errorf("no solver ran; the report must carry no offsets: %+v", doomed)
	}
}

// A tenant over its bucket maps to shed/tenant_overloaded with a
// retry-after floor, while the daemon stays available to other tenants.
func TestHandleTenantOverloaded(t *testing.T) {
	srv := server.New(server.Config{
		Workers: 2, DisableDedup: true,
		// Cache off: a cache hit is served before admission and would never
		// consult the tenant bucket, hiding the shed this test pins.
		CacheSize: -1,
		Tenant:    server.TenantConfig{RPS: 0.001, Burst: 1},
	})
	defer srv.Close()

	req := func(id, tenant string) wireRequest {
		return wireRequest{ID: id, Tenant: tenant, Memory: 8, Buffers: []wireBuffer{{Start: 0, End: 4, Size: 4}}}
	}
	if resp := handle(srv, req("h1", "hog")); resp.Outcome != "solved" {
		t.Fatalf("first request within burst: %+v", resp)
	}
	resp := handle(srv, req("h2", "hog"))
	if resp.Outcome != "shed" || resp.ErrorCode != "tenant_overloaded" {
		t.Fatalf("over-quota report: outcome %q error_code %q, want shed/tenant_overloaded", resp.Outcome, resp.ErrorCode)
	}
	if resp.RetryAfterMS <= 0 {
		t.Errorf("tenant shed must price the retry: %+v", resp)
	}
	if other := handle(srv, req("h3", "bystander")); other.Outcome != "solved" {
		t.Errorf("bystander tenant throttled: %+v", other)
	}
}

// The chaos soak (make chaossoak): a real daemon subprocess is killed -9 and
// restarted mid-flood while a client fleet hammers it, then SIGTERMed with a
// slowloris, an idle connection, and a long-running solve armed. The
// acceptance contract (DESIGN.md §13): every request ends in exactly one of
// {solved, degraded, typed error}, and the drain is bounded.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"telamalloc/internal/client"
	"telamalloc/internal/wire"
)

func TestChaosSoak(t *testing.T) {
	if os.Getenv("TELAMALLOC_CHAOSSOAK") == "" {
		t.Skip("set TELAMALLOC_CHAOSSOAK=1 (make chaossoak) to run the subprocess chaos soak")
	}

	bin := filepath.Join(t.TempDir(), "telamallocd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}

	// A fixed port, so the restarted daemon is reachable at the address the
	// fleet keeps retrying.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	proc := startDaemonProc(t, bin, addr)

	c, err := client.Dial(client.Config{
		Addr:        addr,
		MaxAttempts: -1, // retry until each request's context ends
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		fleet     = 8
		perWorker = 30
		total     = fleet * perWorker
	)
	type result struct {
		outcome string
		err     error
	}
	results := make(chan result, total)
	for w := 0; w < fleet; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				rep, serr := c.Submit(ctx, client.Request{
					ID:     fmt.Sprintf("w%d-r%d", w, i),
					Name:   fmt.Sprintf("soak-%d", w),
					Memory: 8,
					Buffers: []wire.Buffer{
						{Start: 0, End: 4, Size: 4},
						{Start: 4, End: 8, Size: 4},
					},
					Timeout: 2 * time.Second,
				})
				cancel()
				if serr != nil {
					results <- result{err: serr}
				} else {
					results <- result{outcome: rep.Outcome}
				}
			}
		}(w)
	}

	// Collect every result, SIGKILLing and restarting the daemon a third of
	// the way through the flood. Exactly-once: total results must equal
	// total requests, and every error must be typed.
	counts := map[string]int{}
	killed := false
	overall := time.After(3 * time.Minute)
	for got := 0; got < total; got++ {
		var r result
		select {
		case r = <-results:
		case <-overall:
			t.Fatalf("soak stalled: %d/%d results after 3m (%v)", got, total, counts)
		}
		switch {
		case r.err == nil:
			counts[r.outcome]++
		case errors.Is(r.err, client.ErrAmbiguous):
			counts["ambiguous"]++
		case errors.Is(r.err, client.ErrRetriesExhausted):
			counts["retries_exhausted"]++
		case errors.Is(r.err, context.DeadlineExceeded), errors.Is(r.err, context.Canceled):
			counts["ctx_expired"]++
		default:
			counts["UNTYPED"]++
			t.Errorf("untyped terminal error: %v", r.err)
		}
		if !killed && got >= total/3 {
			killed = true
			t.Logf("kill -9 after %d results: %v", got, counts)
			proc.Process.Kill()
			proc.Wait()
			proc = startDaemonProc(t, bin, addr)
		}
	}
	t.Logf("flood outcomes: %v", counts)
	if !killed {
		t.Error("daemon was never killed; the soak did not exercise the crash path")
	}
	if counts["solved"] == 0 {
		t.Errorf("no request solved across the soak: %v", counts)
	}

	// The restarted daemon must actually serve: one clean post-crash solve.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	rep, err := c.Submit(ctx, client.Request{
		ID: "post-restart", Memory: 8,
		Buffers: []wire.Buffer{{Start: 0, End: 4, Size: 4}},
	})
	cancel()
	if err != nil || rep.Outcome != wire.OutcomeSolved {
		t.Fatalf("post-restart solve: %+v, %v", rep, err)
	}

	// Phase 2: SIGTERM with hostile connections armed. A slowloris dribbling
	// bytes, an idle connection, and a long-budget solve in flight must not
	// stop the drain from completing within -drain-timeout (plus slack).
	idle, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	loris, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	go func() {
		// One byte of a never-finished request line at a time.
		for {
			if _, werr := loris.Write([]byte(`{`)); werr != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	heavy, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer heavy.Close()
	var bufs []string
	for i := 0; i < 30; i++ {
		bufs = append(bufs, `{"start":0,"end":10,"size":7}`)
	}
	fmt.Fprintf(heavy, `{"id":"heavy","memory":64,"timeout_ms":20000,"buffers":[%s]}`+"\n", strings.Join(bufs, ","))
	time.Sleep(300 * time.Millisecond) // let the heavy solve get admitted

	proc.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- proc.Wait() }()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		proc.Process.Kill()
		t.Fatal("daemon did not exit within 15s of SIGTERM: drain is unbounded under hostile connections")
	}
	if code := proc.ProcessState.ExitCode(); code != 0 && code != 3 {
		t.Errorf("SIGTERM exit code %d, want 0 (clean drain) or 3 (forced drain)", code)
	}
}

// startDaemonProc launches the built daemon and waits until it accepts.
func startDaemonProc(t *testing.T, bin, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-listen", addr, "-q",
		"-drain-timeout", "1s",
		"-req-timeout", "5s",
		"-idle-timeout", "10s",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err == nil {
			conn.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on %s never became reachable: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

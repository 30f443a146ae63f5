package telamalloc_test

// Tests for cross-request reuse of a pipeline's packing. The pipeline keeps
// no canonical form of its own; the server stores a solved pipeline's
// packing and replays it for a later near hit, and never stores a degraded
// one.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/server"
	"telamalloc/internal/workload"
)

// reuseTightProblem defeats both heuristics but the search solves it.
func reuseTightProblem(t *testing.T) telamalloc.Problem {
	t.Helper()
	p := toPublic(workload.MultiComponent(4, 15, 105, 1))
	if _, err := telamalloc.AllocateGreedy(p); err == nil {
		t.Fatal("fixture drifted: greedy solves the tight problem")
	}
	if _, err := telamalloc.AllocateBestFit(p); err == nil {
		t.Fatal("fixture drifted: best-fit solves the tight problem")
	}
	return p
}

func drainServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// The server stores the pipeline's winning packing, and a near hit (same
// buffers, wider capacity) replays it without running the ladder, crediting
// the stage that won; the replay is stored in turn for the next caller.
func TestPipelineExportsTraceAndReplaysIt(t *testing.T) {
	p := reuseTightProblem(t)
	lib, err := telamalloc.AllocatePipeline(p, telamalloc.WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("library pipeline: %v", err)
	}
	if lib.Winner != telamalloc.StageSearch || lib.Degraded {
		t.Fatalf("library result winner %q degraded=%v, want the search win", lib.Winner, lib.Degraded)
	}

	s := server.New(server.Config{Workers: 1, MaxSteps: 100000})
	defer drainServer(t, s)
	cold, err := s.Submit(context.Background(), server.Request{Problem: p})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if cold.HintReplayed || cold.Winner != lib.Winner {
		t.Fatalf("cold answer winner %q replayed=%v, want the pipeline's %q run cold",
			cold.Winner, cold.HintReplayed, lib.Winner)
	}
	if len(cold.Offsets) != len(lib.Solution.Offsets) {
		t.Fatalf("cold answer has %d offsets, the pipeline %d", len(cold.Offsets), len(lib.Solution.Offsets))
	}
	for i, off := range lib.Solution.Offsets {
		if cold.Offsets[i] != off {
			t.Fatalf("cold answer offset %d = %d, want the pipeline's %d", i, cold.Offsets[i], off)
		}
	}

	wider := p
	wider.Memory = p.Memory + 64
	warm, err := s.Submit(context.Background(), server.Request{Problem: wider})
	if err != nil {
		t.Fatalf("near-hit submit: %v", err)
	}
	if !warm.HintReplayed || warm.CacheHit || warm.Winner != cold.Winner {
		t.Fatalf("near hit replayed=%v cacheHit=%v winner %q, want a replay crediting %q",
			warm.HintReplayed, warm.CacheHit, warm.Winner, cold.Winner)
	}
	if verr := (telamalloc.Solution{Offsets: warm.Offsets}).Validate(wider); verr != nil {
		t.Fatalf("replayed packing invalid: %v", verr)
	}
	if c := s.Snapshot(); c.Admitted != 1 {
		t.Errorf("admitted %d, want 1: the replay must skip the ladder", c.Admitted)
	}

	again, err := s.Submit(context.Background(), server.Request{Problem: wider})
	if err != nil {
		t.Fatalf("repeat submit: %v", err)
	}
	if !again.CacheHit || !bytes.Equal(again.CanonicalJSON(), warm.CanonicalJSON()) {
		t.Errorf("repeat of the replay: cacheHit=%v, want the replayed packing stored for the next caller",
			again.CacheHit)
	}
}

// A degraded pipeline result is a spill packing, not a solution to the
// original problem, so it is never stored: a repeat runs the pipeline again.
func TestPipelineDegradedExportsNoTrace(t *testing.T) {
	p := telamalloc.Problem{
		Memory: 4,
		Buffers: []telamalloc.Buffer{
			{Start: 0, End: 5, Size: 4},
			{Start: 0, End: 5, Size: 4},
		},
	}
	lib, err := telamalloc.AllocatePipeline(p)
	if err != nil {
		t.Fatalf("library pipeline: %v", err)
	}
	if !lib.Degraded {
		t.Fatalf("infeasible fixture no longer degrades: %+v", lib)
	}

	s := server.New(server.Config{Workers: 1})
	defer drainServer(t, s)
	for i := 0; i < 2; i++ {
		resp, err := s.Submit(context.Background(), server.Request{Problem: p})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.Outcome != server.OutcomeDegraded || resp.CacheHit || resp.HintReplayed {
			t.Fatalf("submit %d: outcome %s cacheHit=%v replayed=%v, want a degraded cold run",
				i, resp.Outcome, resp.CacheHit, resp.HintReplayed)
		}
	}
	if c := s.Snapshot(); c.CacheLen != 0 || c.Admitted != 2 {
		t.Errorf("cache holds %d entries after %d admissions, want 0 entries and 2 admissions",
			c.CacheLen, c.Admitted)
	}
}

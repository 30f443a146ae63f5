package core

import (
	"testing"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/telamon"
)

func TestDeadlineStopsSearch(t *testing.T) {
	// A hard instance with an already-expired deadline must return Budget
	// almost immediately.
	p := &buffers.Problem{Memory: 30}
	for i := 0; i < 30; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 10, Size: 3})
	}
	p.Normalize()
	start := time.Now()
	res := Solve(p, Config{Deadline: time.Now().Add(-time.Second)})
	if time.Since(start) > 5*time.Second {
		t.Fatalf("expired deadline ignored for %v", time.Since(start))
	}
	if res.Status == telamon.Solved {
		// Solving before the first deadline check is acceptable for easy
		// instances; this one packs exactly, so a quick solve is fine too.
		if err := res.Solution.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAccumulateStats(t *testing.T) {
	var dst telamon.Stats
	accumulate(&dst, telamon.Stats{Steps: 5, Placements: 3, MinorBacktracks: 2, MajorBacktracks: 1, MaxDepth: 7})
	accumulate(&dst, telamon.Stats{Steps: 10, MaxDepth: 4})
	if dst.Steps != 15 || dst.Placements != 3 || dst.MinorBacktracks != 2 || dst.MajorBacktracks != 1 {
		t.Errorf("sums wrong: %+v", dst)
	}
	if dst.MaxDepth != 7 {
		t.Errorf("MaxDepth = %d, want max not sum", dst.MaxDepth)
	}
}

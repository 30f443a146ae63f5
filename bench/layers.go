package main

// Every call into an internal layer that the traced run times lives in this
// file, so a change to one of these signatures is a one-file benchmark
// change.

import (
	"time"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/cache"
	"telamalloc/internal/core"
	"telamalloc/internal/cp"
)

// layerProbe is what timing one problem's layers directly yields.
type layerProbe struct {
	contention, canonicalize time.Duration

	// The rest is set only when the pipeline's search stage ran.
	searched         bool
	overlaps, model  time.Duration
	pairs            int
	steps            int64
	propagations     int64
	pairWakeups      int64
	conflicts        int64
	replayedStepsOff int64 // replayed steps minus the stage report's
}

// probeLayers times the buffers and cache layers on p and, when search (the
// pipeline's search-stage report) ran, the overlap sweep, the CP model build
// and a replay of the search under the stage's step budget. The replay runs
// sequentially, as the benchmark's pipeline does, so its step count must
// equal the stage report's.
func probeLayers(p telamalloc.Problem, search *telamalloc.StageReport) layerProbe {
	q := &buffers.Problem{Memory: p.Memory, Name: p.Name, Buffers: make([]buffers.Buffer, len(p.Buffers))}
	for i, b := range p.Buffers {
		q.Buffers[i] = buffers.Buffer{ID: i, Start: b.Start, End: b.End, Size: b.Size, Align: b.Align}
	}
	var lp layerProbe
	t := time.Now()
	buffers.Contention(q).Peak()
	lp.contention = time.Since(t)
	t = time.Now()
	cache.Canonicalize(q)
	lp.canonicalize = time.Since(t)
	if search == nil || search.Skipped {
		return lp
	}
	lp.searched = true
	t = time.Now()
	ov := buffers.ComputeOverlaps(q)
	lp.overlaps = time.Since(t)
	t = time.Now()
	m := cp.NewModel(q, ov)
	lp.model = time.Since(t)
	lp.pairs = m.NumPairs()
	res := core.Solve(q, core.Config{MaxSteps: search.StepBudget, Parallelism: 1})
	lp.steps = res.Stats.Steps
	lp.propagations = res.Stats.SolverStats.Propagations
	lp.pairWakeups = res.Stats.SolverStats.PairWakeups
	lp.conflicts = res.Stats.SolverStats.Conflicts
	lp.replayedStepsOff = res.Stats.Steps - search.Stats.Steps
	return lp
}

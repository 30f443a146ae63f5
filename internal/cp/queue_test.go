package cp

import (
	"math/rand"
	"testing"

	"telamalloc/internal/buffers"
)

// queueWorkload builds a deterministic, moderately dense instance whose
// propagation exercises the pair queue heavily: staggered live ranges give
// every buffer several temporal neighbours.
func queueWorkload() *buffers.Problem {
	rng := rand.New(rand.NewSource(7))
	p := &buffers.Problem{Memory: 256}
	for i := 0; i < 40; i++ {
		start := rng.Int63n(30)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start,
			End:   start + 3 + rng.Int63n(20),
			Size:  4 + rng.Int63n(28),
		})
	}
	p.Normalize()
	return p
}

// engine is the surface exerciseQueue drives; Model and the reference
// engine both provide it.
type engine interface {
	Problem() *buffers.Problem
	Push()
	Pop()
	Place(buf int, pos int64) *Conflict
	LowestFeasible(buf int) (int64, bool)
	Stats() Stats
}

// exerciseQueue drives the model through a deterministic mix of
// placements, conflicts, and pops — the access pattern whose propagation
// counts are pinned below.
func exerciseQueue(m engine) Stats {
	n := len(m.Problem().Buffers)
	for i := 0; i < n; i++ {
		m.Push()
		pos, ok := m.LowestFeasible(i)
		if !ok {
			m.Pop()
			continue
		}
		if c := m.Place(i, pos); c != nil {
			m.Pop()
			continue
		}
		// Periodically undo and re-place one level higher to exercise
		// Pop's queue clearing mid-propagation history.
		if i%7 == 3 {
			m.Pop()
			m.Push()
			if pos2, ok2 := m.LowestFeasible(i); ok2 {
				if c := m.Place(i, pos2); c != nil {
					m.Pop()
				}
			} else {
				m.Pop()
			}
		}
	}
	return m.Stats()
}

// TestPropagationCountsGolden pins the exact propagation work done on a
// fixed scenario, for Model and for the reference engine alike. The values
// follow the idle-gated wake rule: a pair is enqueued only when propagating
// it would change something. Under the earlier wake-every-pair rule the
// same scenario did 6338 pair wakeups (and 425 propagations and 481 order
// fixes, because its conflicts surfaced after a different prefix of
// updates).
func TestPropagationCountsGolden(t *testing.T) {
	p := queueWorkload()
	want := Stats{
		Propagations: 442,
		OrderFixes:   498,
		Conflicts:    10,
		PairWakeups:  1006,
	}
	if got := exerciseQueue(NewModel(p, nil)); got != want {
		t.Errorf("propagation stats changed:\n got  %+v\n want %+v", got, want)
	}
	if got := exerciseQueue(newRefModel(p, nil)); got != want {
		t.Errorf("reference propagation stats changed:\n got  %+v\n want %+v", got, want)
	}
}

// TestQueueConsistencyAfterPop verifies that no stale inQueue marks survive
// a conflict or a Pop: a fresh Propagate on a quiescent model must do no
// work at all.
func TestQueueConsistencyAfterPop(t *testing.T) {
	p := queueWorkload()
	m := NewModel(p, nil)
	exerciseQueue(m)
	before := m.Stats()
	if c := m.Propagate(); c != nil {
		t.Fatalf("unexpected conflict on quiescent model: %v", c)
	}
	after := m.Stats()
	if before.PairWakeups != after.PairWakeups {
		t.Errorf("quiescent Propagate woke %d pairs; queue not drained cleanly",
			after.PairWakeups-before.PairWakeups)
	}
	for k, in := range m.inQueue {
		if in {
			t.Errorf("pair %d still marked in-queue on an empty queue", k)
		}
	}
}

package cp

import (
	"testing"

	"telamalloc/internal/buffers"
)

func TestNumPairsGrowsQuadratically(t *testing.T) {
	mk := func(n int) *Model {
		p := &buffers.Problem{Memory: 1 << 40}
		for i := 0; i < n; i++ {
			p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 10, Size: 1})
		}
		p.Normalize()
		return NewModel(p, nil)
	}
	if got := mk(10).NumPairs(); got != 45 {
		t.Errorf("NumPairs(10) = %d, want 45", got)
	}
	if got := mk(100).NumPairs(); got != 4950 {
		t.Errorf("NumPairs(100) = %d, want 4950", got)
	}
}

// TestFreeSlackShrinksUnderPropagation: placing a buffer narrows its
// neighbour's domain, posMax - posMin.
func TestFreeSlackShrinksUnderPropagation(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 4},
			{Start: 0, End: 10, Size: 4},
		},
		Memory: 12,
	}
	p.Normalize()
	m := NewModel(p, nil)
	slack := func() int64 { return m.MaxPos(1) - m.MinPos(1) }
	before := slack()
	m.Push()
	if c := m.Place(0, 0); c != nil {
		t.Fatalf("place: %v", c)
	}
	if after := slack(); after >= before {
		t.Errorf("slack did not shrink: %d -> %d", before, after)
	}
}

func TestLevelTracking(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{{Start: 0, End: 5, Size: 1}},
		Memory:  8,
	}
	p.Normalize()
	m := NewModel(p, nil)
	if m.Level() != 0 {
		t.Errorf("Level = %d", m.Level())
	}
	m.Push()
	m.Push()
	if m.Level() != 2 {
		t.Errorf("Level = %d, want 2", m.Level())
	}
	m.Pop()
	if m.Level() != 1 {
		t.Errorf("Level = %d, want 1", m.Level())
	}
}

// TestLowestFeasibleOffFixpoint: at a fixpoint the lowest feasible
// position is the propagated lower bound, above the merged placed
// neighbours; after a conflict, until its Pop, the placed neighbours are
// scanned against the wiped-out bounds, which leave no position.
func TestLowestFeasibleOffFixpoint(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 4},  // will occupy [0,4)
			{Start: 0, End: 10, Size: 4},  // will occupy [4,8) — adjacent, must merge
			{Start: 0, End: 10, Size: 2},  // query subject
			{Start: 50, End: 60, Size: 9}, // temporally disjoint, ignored
		},
		Memory: 16,
	}
	p.Normalize()
	m := NewModel(p, nil)
	for _, pl := range []struct {
		buf int
		pos int64
	}{{0, 0}, {1, 4}, {3, 0}} {
		m.Push()
		if c := m.Place(pl.buf, pl.pos); c != nil {
			t.Fatal(c)
		}
	}
	if pos, ok := m.LowestFeasible(2); !ok || pos != 8 {
		t.Errorf("at the fixpoint: LowestFeasible = (%d, %v), want (8, true)", pos, ok)
	}
	// Buffer 2 cannot sit at 2: the conflict leaves the model off its
	// fixpoint with buffer 2's bounds wiped out.
	m.Push()
	if c := m.Place(2, 2); c == nil {
		t.Fatal("Place(2, 2) over placed neighbours returned no conflict")
	}
	if pos, ok := m.LowestFeasible(2); ok {
		t.Errorf("after the conflict: LowestFeasible = %d, want none", pos)
	}
	m.Pop()
	if pos, ok := m.LowestFeasible(2); !ok || pos != 8 {
		t.Errorf("after the Pop: LowestFeasible = (%d, %v), want (8, true)", pos, ok)
	}
}

func TestDeepPropagationChain(t *testing.T) {
	// A chain of n stacked buffers in exactly-fitting memory: placing the
	// bottom one pins every other via transitive propagation once orderings
	// resolve. Verify positions settle correctly through a long chain.
	const n = 20
	p := &buffers.Problem{Memory: n}
	for i := 0; i < n; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 5, Size: 1})
	}
	p.Normalize()
	m := NewModel(p, nil)
	m.Push()
	for i := 0; i < n; i++ {
		pos, ok := m.LowestFeasible(i)
		if !ok {
			t.Fatalf("buffer %d has no feasible position", i)
		}
		m.Push()
		if c := m.Place(i, pos); c != nil {
			t.Fatalf("place %d: %v", i, c)
		}
	}
	sol := &buffers.Solution{Offsets: m.Solution()}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
	if peak := sol.PeakUsage(p); peak != n {
		t.Errorf("peak = %d, want %d (exact packing)", peak, n)
	}
}

func TestConflictErrorString(t *testing.T) {
	c := &Conflict{Pair: Pair{1, 2}, Placements: []int{3, 4}}
	if c.Error() == "" {
		t.Error("empty error string")
	}
}

func TestOrderString(t *testing.T) {
	if Unknown.String() != "?" || AFirst.String() != "A<B" || BFirst.String() != "B<A" {
		t.Errorf("Order strings wrong: %v %v %v", Unknown, AFirst, BFirst)
	}
}

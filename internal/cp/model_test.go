package cp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"telamalloc/internal/buffers"
)

func twoOverlapping(mem int64) *buffers.Problem {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 4},
			{Start: 0, End: 10, Size: 4},
		},
		Memory: mem,
	}
	p.Normalize()
	return p
}

func TestInitialBounds(t *testing.T) {
	p := twoOverlapping(16)
	m := NewModel(p, nil)
	for i := 0; i < 2; i++ {
		if m.MinPos(i) != 0 || m.MaxPos(i) != 12 {
			t.Errorf("buffer %d bounds = [%d, %d], want [0, 12]", i, m.MinPos(i), m.MaxPos(i))
		}
	}
	if m.NumPairs() != 1 {
		t.Errorf("NumPairs = %d, want 1", m.NumPairs())
	}
}

func TestPlacePropagatesOrdering(t *testing.T) {
	// Memory 8, two size-4 buffers fully overlapping: placing one at 0
	// forces the other to [4, 4].
	p := twoOverlapping(8)
	m := NewModel(p, nil)
	m.Push()
	if c := m.Place(0, 0); c != nil {
		t.Fatalf("unexpected conflict: %v", c)
	}
	if m.MinPos(1) != 4 || m.MaxPos(1) != 4 {
		t.Errorf("buffer 1 bounds = [%d, %d], want [4, 4]", m.MinPos(1), m.MaxPos(1))
	}
}

func TestPlaceConflictAndExplanation(t *testing.T) {
	// Memory 12; buffer 0 (size 4) placed mid-memory splits the space into
	// two gaps of 4. Three size-3 buffers remain; each pairwise combination
	// is fine, so propagation accepts the first two placements, but after
	// buffer 1 goes into the lower gap, buffers 2 and 3 are both forced into
	// the upper gap and conflict. The explanation must implicate placed
	// buffers.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 4},
			{Start: 0, End: 10, Size: 3},
			{Start: 0, End: 10, Size: 3},
			{Start: 0, End: 10, Size: 3},
		},
		Memory: 12,
	}
	p.Normalize()
	m := NewModel(p, nil)
	m.Push()
	if c := m.Place(0, 4); c != nil {
		t.Fatalf("placement 0: %v", c)
	}
	m.Push()
	c := m.Place(1, 0)
	if c == nil {
		t.Fatal("expected conflict: buffers 2 and 3 cannot share the upper gap")
	}
	found := map[int]bool{}
	for _, id := range c.Placements {
		found[id] = true
	}
	if !found[0] && !found[1] {
		t.Errorf("conflict explanation %v names neither placed buffer", c.Placements)
	}
	// Recovery: pop and place buffer 1 in the upper gap instead; then the
	// problem stays infeasible (2 and 3 must share the lower gap), so the
	// alternative also conflicts — the instance truly needs buffer 0 moved.
	m.Pop()
	if c := m.Place(1, 8); c == nil {
		t.Error("expected conflict for the mirrored placement too")
	}
}

func TestPopRestoresState(t *testing.T) {
	p := twoOverlapping(8)
	m := NewModel(p, nil)
	m.Push()
	if c := m.Place(0, 0); c != nil {
		t.Fatalf("place: %v", c)
	}
	if m.MinPos(1) != 4 {
		t.Fatalf("propagation missing")
	}
	m.Pop()
	if m.Placed(0) {
		t.Error("buffer 0 still placed after Pop")
	}
	if m.MinPos(0) != 0 || m.MaxPos(0) != 4 {
		t.Errorf("buffer 0 bounds = [%d, %d], want [0, 4]", m.MinPos(0), m.MaxPos(0))
	}
	if m.MinPos(1) != 0 || m.MaxPos(1) != 4 {
		t.Errorf("buffer 1 bounds = [%d, %d], want [0, 4]", m.MinPos(1), m.MaxPos(1))
	}
	// The model must be reusable after Pop.
	m.Push()
	if c := m.Place(1, 4); c != nil {
		t.Fatalf("re-place after pop: %v", c)
	}
	if m.MinPos(0) != 0 || m.MaxPos(0) != 0 {
		t.Errorf("buffer 0 bounds = [%d, %d], want [0, 0]", m.MinPos(0), m.MaxPos(0))
	}
}

func TestAlignmentSnapping(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 3},
			{Start: 0, End: 10, Size: 4, Align: 8},
		},
		Memory: 16,
	}
	p.Normalize()
	m := NewModel(p, nil)
	if m.MaxPos(1) != 8 {
		t.Errorf("aligned MaxPos = %d, want 8 (snap down from 12)", m.MaxPos(1))
	}
	m.Push()
	if c := m.Place(0, 0); c != nil {
		t.Fatalf("place: %v", c)
	}
	// Buffer 1 must now start at >= 3, snapped up to 8.
	if m.MinPos(1) != 8 {
		t.Errorf("aligned MinPos after propagation = %d, want 8", m.MinPos(1))
	}
}

func TestLowestFeasible(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 4},  // will sit at 4
			{Start: 0, End: 10, Size: 4},  // will sit at 12
			{Start: 0, End: 10, Size: 4},  // query: lowest gap is 0, then 8
			{Start: 20, End: 30, Size: 4}, // temporally disjoint; must not matter
		},
		Memory: 16,
	}
	p.Normalize()
	m := NewModel(p, nil)
	m.Push()
	if c := m.Place(3, 0); c != nil {
		t.Fatalf("place: %v", c)
	}
	m.Push()
	if c := m.Place(0, 4); c != nil {
		t.Fatalf("place: %v", c)
	}
	m.Push()
	if c := m.Place(1, 12); c != nil {
		t.Fatalf("place: %v", c)
	}
	pos, ok := m.LowestFeasible(2)
	if !ok || pos != 0 {
		t.Errorf("LowestFeasible = (%d, %v), want (0, true)", pos, ok)
	}
	next, ok := m.NextFeasibleAbove(2, 0)
	if !ok || next != 8 {
		t.Errorf("NextFeasibleAbove(0) = (%d, %v), want (8, true)", next, ok)
	}
	if _, ok := m.NextFeasibleAbove(2, 8); ok {
		t.Error("NextFeasibleAbove(8) should fail: no room above 12")
	}
}

func TestSolverGuidedPlacementUnderOverhang(t *testing.T) {
	// Paper §5.2: blocks can be placed *underneath* an already placed block
	// whose live range only partially overlaps. A skyline cannot do this.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 4, Size: 4}, // early
			{Start: 2, End: 8, Size: 4}, // placed high, overhangs t in [4,8)
			{Start: 4, End: 8, Size: 4}, // late; fits under the overhang
		},
		Memory: 8,
	}
	p.Normalize()
	m := NewModel(p, nil)
	m.Push()
	if c := m.Place(0, 0); c != nil {
		t.Fatalf("place 0: %v", c)
	}
	m.Push()
	if c := m.Place(1, 4); c != nil {
		t.Fatalf("place 1: %v", c)
	}
	pos, ok := m.LowestFeasible(2)
	if !ok || pos != 0 {
		t.Errorf("buffer 2 lowest = (%d, %v), want (0, true): must fit under the overhang", pos, ok)
	}
}

func TestFixOrder(t *testing.T) {
	p := twoOverlapping(8)
	m := NewModel(p, nil)
	m.Push()
	if c := m.FixOrder(0, AFirst); c != nil {
		t.Fatalf("FixOrder: %v", c)
	}
	if m.MinPos(1) != 4 {
		t.Errorf("MinPos(1) = %d, want 4", m.MinPos(1))
	}
	if m.MaxPos(0) != 0 {
		t.Errorf("MaxPos(0) = %d, want 0", m.MaxPos(0))
	}
	// Fixing the same order again is a no-op.
	if c := m.FixOrder(0, AFirst); c != nil {
		t.Errorf("re-fixing same order conflicted: %v", c)
	}
	// Contradicting it conflicts.
	if c := m.FixOrder(0, BFirst); c == nil {
		t.Error("contradictory FixOrder did not conflict")
	}
}

func TestDisjunctionAutoResolves(t *testing.T) {
	// Memory so tight that one ordering is impossible from the start:
	// a size-6 and a size-4 buffer in memory 10: both orders feasible.
	// Shrink memory to 10 with sizes 6 and 4: pos(a) in [0,4], pos(b) in [0,6].
	// After placing a at 4, b cannot go above (4+6=10 > 10-4) => must be below.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 6},
			{Start: 0, End: 5, Size: 4},
		},
		Memory: 10,
	}
	p.Normalize()
	m := NewModel(p, nil)
	m.Push()
	if c := m.Place(0, 4); c != nil {
		t.Fatalf("place: %v", c)
	}
	if m.MinPos(1) != 0 || m.MaxPos(1) != 0 {
		t.Errorf("buffer 1 bounds = [%d, %d], want pinned to 0", m.MinPos(1), m.MaxPos(1))
	}
	_, order := m.PairAt(0)
	if order != BFirst {
		t.Errorf("order = %v, want B<A", order)
	}
}

func TestSolutionExtraction(t *testing.T) {
	p := twoOverlapping(16)
	m := NewModel(p, nil)
	m.Push()
	if c := m.Place(0, 4); c != nil {
		t.Fatalf("place: %v", c)
	}
	sol := m.Solution()
	if sol[0] != 4 || sol[1] != -1 {
		t.Errorf("Solution = %v, want [4 -1]", sol)
	}
	if m.AllPlaced() {
		t.Error("AllPlaced true with one unplaced buffer")
	}
	m.Push()
	if c := m.Place(1, 8); c != nil {
		t.Fatalf("place: %v", c)
	}
	if !m.AllPlaced() {
		t.Error("AllPlaced false with all buffers placed")
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := twoOverlapping(8)
	m := NewModel(p, nil)
	m.Push()
	_ = m.Place(0, 0)
	st := m.Stats()
	if st.Propagations == 0 {
		t.Error("no propagations recorded")
	}
	if st.PairWakeups == 0 {
		t.Error("no pair wakeups recorded")
	}
}

// TestPropertyRandomPlacementSequences checks two invariants on random
// problems: (1) if the model accepts a full placement sequence, the result
// is a valid packing; (2) Push/Pop restores bounds exactly.
func TestPropertyRandomPlacementSequences(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		p := &buffers.Problem{Memory: 64}
		for i := 0; i < n; i++ {
			start := rng.Int63n(20)
			p.Buffers = append(p.Buffers, buffers.Buffer{
				Start: start,
				End:   start + 1 + rng.Int63n(10),
				Size:  1 + rng.Int63n(16),
				Align: []int64{0, 1, 2, 4}[rng.Intn(4)],
			})
		}
		p.Normalize()
		m := NewModel(p, nil)

		// Snapshot initial bounds.
		initMin := make([]int64, n)
		initMax := make([]int64, n)
		for i := 0; i < n; i++ {
			initMin[i], initMax[i] = m.MinPos(i), m.MaxPos(i)
		}

		placedAll := true
		var pushes int
		for i := 0; i < n; i++ {
			pos, ok := m.LowestFeasible(i)
			if !ok {
				placedAll = false
				break
			}
			m.Push()
			pushes++
			if c := m.Place(i, pos); c != nil {
				m.Pop()
				pushes--
				placedAll = false
				break
			}
		}
		if placedAll {
			sol := &buffers.Solution{Offsets: m.Solution()}
			if err := sol.Validate(p); err != nil {
				t.Logf("seed %d: invalid solution accepted: %v", seed, err)
				return false
			}
		}
		for ; pushes > 0; pushes-- {
			m.Pop()
		}
		for i := 0; i < n; i++ {
			if m.MinPos(i) != initMin[i] || m.MaxPos(i) != initMax[i] {
				t.Logf("seed %d: bounds of %d not restored", seed, i)
				return false
			}
			if m.Placed(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop without Push did not panic")
		}
	}()
	m := NewModel(twoOverlapping(8), nil)
	m.Pop()
}

// TestConflictLifetime pins the documented conflict lifetime: the model
// owns the conflicts it returns, so the next conflict overwrites the one a
// caller holds, and a copy taken before it keeps the first explanation. A
// root conflict is the model's own copy and survives later conflicts.
func TestConflictLifetime(t *testing.T) {
	// Three size-6 buffers live together in 12 bytes: placing one at 0
	// pushes the other two onto [6, 6], where they collide.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 6},
			{Start: 0, End: 10, Size: 6},
			{Start: 0, End: 10, Size: 6},
		},
		Memory: 12,
	}
	p.Normalize()
	m := NewModel(p, nil)
	m.Push()
	first := m.Place(0, 0)
	if first == nil {
		t.Fatal("placing buffer 0 at 0 did not conflict")
	}
	kept := *first
	kept.Placements = append([]int(nil), first.Placements...)
	if kept.Pair != (Pair{1, 2}) || len(kept.Placements) != 1 || kept.Placements[0] != 0 {
		t.Fatalf("first conflict %+v, want pair (1,2) explained by placement 0", kept)
	}
	m.Pop()
	m.Push()
	second := m.Place(1, 0)
	if second != first {
		t.Fatalf("the second conflict lives at %p, the first at %p: want the model's one storage", second, first)
	}
	if first.Pair != (Pair{0, 2}) || len(first.Placements) != 1 || first.Placements[0] != 1 {
		t.Errorf("held conflict reads %+v after the next one, want it overwritten with pair (0,2) explained by 1", *first)
	}
	if kept.Pair != (Pair{1, 2}) || kept.Placements[0] != 0 {
		t.Errorf("the copy changed to %+v", kept)
	}
	m.Pop()

	root := NewModel(rootInfeasible(), nil)
	rc := root.Place(2, 0)
	if rc == nil || rc == &root.conflict {
		t.Fatalf("root conflict %p, want a copy apart from the model's storage %p", rc, &root.conflict)
	}
	want := *rc
	root.explainPair(Pair{0, 2})
	if rc.Pair != want.Pair || rc.Var != want.Var {
		t.Errorf("root conflict changed to %+v after another conflict, want %+v", *rc, want)
	}
	if again := root.FixOrder(0, AFirst); again != rc {
		t.Errorf("FixOrder on a root-infeasible model returned %p, want the root conflict %p", again, rc)
	}
}

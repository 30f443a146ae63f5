package buffers

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBufferLifetimeArea(t *testing.T) {
	b := Buffer{Start: 3, End: 10, Size: 4}
	if got := b.Lifetime(); got != 7 {
		t.Errorf("Lifetime = %d, want 7", got)
	}
	if got := b.Area(); got != 28 {
		t.Errorf("Area = %g, want 28", got)
	}
}

func TestOverlapsInTime(t *testing.T) {
	cases := []struct {
		a, b Buffer
		want bool
	}{
		{Buffer{Start: 0, End: 5}, Buffer{Start: 5, End: 10}, false}, // touching (End exclusive)
		{Buffer{Start: 0, End: 6}, Buffer{Start: 5, End: 10}, true},
		{Buffer{Start: 5, End: 10}, Buffer{Start: 0, End: 6}, true},
		{Buffer{Start: 0, End: 3}, Buffer{Start: 4, End: 6}, false},
		{Buffer{Start: 2, End: 8}, Buffer{Start: 3, End: 4}, true}, // containment
		{Buffer{Start: 3, End: 4}, Buffer{Start: 3, End: 4}, true}, // identical
	}
	for _, c := range cases {
		if got := c.a.OverlapsInTime(c.b); got != c.want {
			t.Errorf("OverlapsInTime(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.OverlapsInTime(c.a); got != c.want {
			t.Errorf("symmetry violated for (%v, %v)", c.a, c.b)
		}
	}
}

func TestAlignUp(t *testing.T) {
	cases := []struct {
		align, addr, want int64
	}{
		{0, 7, 7},
		{1, 7, 7},
		{8, 0, 0},
		{8, 1, 8},
		{8, 8, 8},
		{8, 9, 16},
		{32, 33, 64},
	}
	for _, c := range cases {
		b := Buffer{Align: c.align}
		if got := b.AlignUp(c.addr); got != c.want {
			t.Errorf("align=%d AlignUp(%d) = %d, want %d", c.align, c.addr, got, c.want)
		}
	}
}

func TestValidateMagnitudeCaps(t *testing.T) {
	mk := func(b Buffer, mem int64) Problem {
		return Problem{Memory: mem, Buffers: []Buffer{b}}
	}
	cases := []struct {
		name string
		p    Problem
	}{
		{"memory too large", Problem{Memory: MaxMemory + 1}},
		{"end beyond MaxTime", mk(Buffer{Start: 0, End: MaxTime + 1, Size: 1}, 8)},
		{"start below -MaxTime", mk(Buffer{Start: -MaxTime - 1, End: 0, Size: 1}, 8)},
		{"alignment beyond memory", mk(Buffer{Start: 0, End: 1, Size: 1, Align: 16}, 8)},
	}
	for _, c := range cases {
		if err := c.p.Validate(); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%s: Validate = %v, want ErrOutOfRange", c.name, err)
		}
	}
	// A problem at exactly the caps is accepted.
	ok := mk(Buffer{Start: -MaxTime, End: MaxTime, Size: MaxMemory}, MaxMemory)
	if err := ok.Validate(); err != nil {
		t.Errorf("caps rejected at the boundary: %v", err)
	}
}

func TestProblemValidate(t *testing.T) {
	ok := &Problem{
		Buffers: []Buffer{{ID: 0, Start: 0, End: 4, Size: 8}},
		Memory:  16,
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Problem
		want error
	}{
		{"zero memory", Problem{Memory: 0}, ErrBadMemory},
		{"zero size", Problem{Memory: 8, Buffers: []Buffer{{Start: 0, End: 1, Size: 0}}}, ErrNegativeSize},
		{"inverted range", Problem{Memory: 8, Buffers: []Buffer{{Start: 4, End: 2, Size: 1}}}, ErrEmptyLifetime},
		{"empty range", Problem{Memory: 8, Buffers: []Buffer{{Start: 2, End: 2, Size: 1}}}, ErrEmptyLifetime},
		{"negative align", Problem{Memory: 8, Buffers: []Buffer{{Start: 0, End: 1, Size: 1, Align: -2}}}, ErrBadAlignment},
		{"oversized", Problem{Memory: 8, Buffers: []Buffer{{Start: 0, End: 1, Size: 9}}}, ErrTooLarge},
	}
	for _, c := range cases {
		if err := c.p.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestNormalizeAndClone(t *testing.T) {
	p := &Problem{
		Buffers: []Buffer{{ID: 42, Start: 0, End: 1, Size: 1}, {ID: 7, Start: 1, End: 2, Size: 2}},
		Memory:  8,
		Name:    "x",
	}
	p.Normalize()
	for i, b := range p.Buffers {
		if b.ID != i {
			t.Errorf("Buffers[%d].ID = %d after Normalize", i, b.ID)
		}
	}
	q := p.Clone()
	q.Buffers[0].Size = 99
	if p.Buffers[0].Size == 99 {
		t.Error("Clone shares buffer storage with original")
	}
	if q.Memory != p.Memory || q.Name != p.Name {
		t.Error("Clone lost scalar fields")
	}
}

func TestSubset(t *testing.T) {
	p := &Problem{Memory: 8, Name: "orig"}
	for i := int64(0); i < 4; i++ {
		p.Buffers = append(p.Buffers, Buffer{Start: i, End: i + 1, Size: i + 1})
	}
	p.Normalize()
	sub := p.Subset([]int{2, 0})
	if sub.Name != "orig" || sub.Memory != 8 {
		t.Errorf("metadata lost: %+v", sub)
	}
	if len(sub.Buffers) != 2 || sub.Buffers[0].Size != 3 || sub.Buffers[1].Size != 1 {
		t.Errorf("wrong buffers: %+v", sub.Buffers)
	}
	if sub.Buffers[0].ID != 0 || sub.Buffers[1].ID != 1 {
		t.Error("subset not normalized")
	}
	if p.Buffers[2].ID != 2 {
		t.Error("Subset renumbered the original problem")
	}
	if empty := p.Subset(nil); len(empty.Buffers) != 0 || empty.Memory != 8 {
		t.Errorf("empty subset wrong: %+v", empty)
	}
}

func TestTimeHorizonAndTotalBytes(t *testing.T) {
	p := &Problem{Buffers: []Buffer{
		{Start: 5, End: 9, Size: 3},
		{Start: 2, End: 4, Size: 4},
		{Start: 3, End: 12, Size: 5},
	}, Memory: 100}
	lo, hi := p.TimeHorizon()
	if lo != 2 || hi != 12 {
		t.Errorf("TimeHorizon = (%d, %d), want (2, 12)", lo, hi)
	}
	if got := p.TotalBytes(); got != 12 {
		t.Errorf("TotalBytes = %d, want 12", got)
	}
	empty := &Problem{}
	if lo, hi := empty.TimeHorizon(); lo != 0 || hi != 0 {
		t.Errorf("empty TimeHorizon = (%d, %d)", lo, hi)
	}
}

func TestSolutionValidateAcceptsFigure1StylePacking(t *testing.T) {
	// Two long buffers plus one that fits between them.
	p := &Problem{
		Buffers: []Buffer{
			{Start: 0, End: 10, Size: 4},
			{Start: 0, End: 10, Size: 4},
			{Start: 2, End: 8, Size: 8},
		},
		Memory: 16,
	}
	p.Normalize()
	s := &Solution{Offsets: []int64{0, 4, 8}}
	if err := s.Validate(p); err != nil {
		t.Fatalf("valid packing rejected: %v", err)
	}
	if got := s.PeakUsage(p); got != 16 {
		t.Errorf("PeakUsage = %d, want 16", got)
	}
}

func TestSolutionValidateRejections(t *testing.T) {
	p := &Problem{
		Buffers: []Buffer{
			{Start: 0, End: 4, Size: 4, Align: 0},
			{Start: 2, End: 6, Size: 4, Align: 8},
		},
		Memory: 16,
	}
	p.Normalize()
	cases := []struct {
		name    string
		offsets []int64
		want    error
	}{
		{"wrong length", []int64{0}, ErrWrongBuffers},
		{"unassigned", []int64{-1, 0}, ErrUnassigned},
		{"out of bounds", []int64{14, 0}, ErrOutOfBounds},
		{"misaligned", []int64{0, 4}, ErrMisaligned},
		{"overlap", []int64{0, 0}, ErrOverlap},
		{"valid", []int64{0, 8}, nil},
	}
	for _, c := range cases {
		s := &Solution{Offsets: c.offsets}
		err := s.Validate(p)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestSolutionValidateAllowsTemporallyDisjointSpatialOverlap(t *testing.T) {
	p := &Problem{
		Buffers: []Buffer{
			{Start: 0, End: 5, Size: 8},
			{Start: 5, End: 10, Size: 8}, // reuses the same addresses after the first dies
		},
		Memory: 8,
	}
	p.Normalize()
	s := &Solution{Offsets: []int64{0, 0}}
	if err := s.Validate(p); err != nil {
		t.Fatalf("address reuse across disjoint lifetimes rejected: %v", err)
	}
}

func TestNewSolutionStartsUnassigned(t *testing.T) {
	s := NewSolution(3)
	if got := s.Assigned(); got != 0 {
		t.Errorf("Assigned = %d, want 0", got)
	}
	s.Offsets[1] = 5
	if got := s.Assigned(); got != 1 {
		t.Errorf("Assigned = %d, want 1", got)
	}
	c := s.Clone()
	c.Offsets[0] = 7
	if s.Offsets[0] != -1 {
		t.Error("Clone shares offsets with original")
	}
}

// randomProblem builds a random but structurally valid problem.
func randomProblem(rng *rand.Rand, n int) *Problem {
	p := &Problem{Memory: 1 << 20}
	for i := 0; i < n; i++ {
		start := rng.Int63n(100)
		p.Buffers = append(p.Buffers, Buffer{
			Start: start,
			End:   start + 1 + rng.Int63n(40),
			Size:  1 + rng.Int63n(1000),
		})
	}
	p.Normalize()
	return p
}

func TestPropertyValidateAgreesWithBruteForce(t *testing.T) {
	// Property: the sweep-line Validate agrees with an O(n^2) brute-force
	// overlap check on random problems with random (possibly bad) offsets.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 2+rng.Intn(20))
		s := NewSolution(len(p.Buffers))
		for i, b := range p.Buffers {
			s.Offsets[i] = rng.Int63n(p.Memory - b.Size + 1)
		}
		want := bruteForceOverlap(p, s)
		got := errors.Is(s.Validate(p), ErrOverlap)
		if s.Validate(p) == nil && want {
			return false
		}
		return got == want || s.Validate(p) == nil == !want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func bruteForceOverlap(p *Problem, s *Solution) bool {
	for i := range p.Buffers {
		for j := i + 1; j < len(p.Buffers); j++ {
			a, b := p.Buffers[i], p.Buffers[j]
			if !a.OverlapsInTime(b) {
				continue
			}
			oa, ob := s.Offsets[i], s.Offsets[j]
			if oa < ob+b.Size && ob < oa+a.Size {
				return true
			}
		}
	}
	return false
}

package phases

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"telamalloc/internal/buffers"
	"telamalloc/internal/workload"
)

func TestRegionOverlaps(t *testing.T) {
	r := Region{5, 10}
	cases := []struct {
		b    buffers.Buffer
		want bool
	}{
		{buffers.Buffer{Start: 0, End: 5}, false},
		{buffers.Buffer{Start: 0, End: 6}, true},
		{buffers.Buffer{Start: 9, End: 20}, true},
		{buffers.Buffer{Start: 10, End: 20}, false},
		{buffers.Buffer{Start: 6, End: 8}, true},
	}
	for _, c := range cases {
		if got := r.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestGroupHighAndLowContention(t *testing.T) {
	// Memory 10. Two buffers of size 5 overlapping in [0,10) (100%
	// contention), then a lull, then one small buffer (20%).
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 5},
			{Start: 0, End: 10, Size: 5},
			{Start: 20, End: 30, Size: 2},
		},
		Memory: 10,
	}
	p.Normalize()
	a := Group(p)
	if len(a.Phases) < 2 {
		t.Fatalf("got %d phases, want >= 2: %+v", len(a.Phases), a.Phases)
	}
	if a.PhaseOf[0] != a.PhaseOf[1] {
		t.Errorf("high-contention buffers in different phases: %v", a.PhaseOf)
	}
	if a.PhaseOf[2] == a.PhaseOf[0] {
		t.Errorf("low-contention buffer grouped with high-contention phase")
	}
	if a.Phases[a.PhaseOf[0]].ThresholdPct != 100 {
		t.Errorf("first phase threshold = %d, want 100", a.Phases[a.PhaseOf[0]].ThresholdPct)
	}
	// Phases must be ordered by decreasing threshold.
	for i := 1; i < len(a.Phases); i++ {
		if a.Phases[i].ThresholdPct > a.Phases[i-1].ThresholdPct {
			t.Errorf("phases not in decreasing threshold order: %+v", a.Phases)
		}
	}
}

func TestGroupCatchAllPhase(t *testing.T) {
	// A single tiny buffer (contention 1% of memory) falls below every
	// threshold and must land in the catch-all phase.
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{{Start: 0, End: 5, Size: 1}},
		Memory:  1000,
	}
	p.Normalize()
	a := Group(p)
	if len(a.Phases) != 1 || a.Phases[0].ThresholdPct != 0 {
		t.Fatalf("want one catch-all phase, got %+v", a.Phases)
	}
	if a.PhaseOf[0] != 0 {
		t.Errorf("PhaseOf = %v", a.PhaseOf)
	}
}

func TestGroupEveryBufferAssignedExactlyOnce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &buffers.Problem{Memory: 100}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			start := rng.Int63n(50)
			p.Buffers = append(p.Buffers, buffers.Buffer{
				Start: start,
				End:   start + 1 + rng.Int63n(20),
				Size:  1 + rng.Int63n(40),
			})
		}
		p.Normalize()
		a := Group(p)
		seen := make([]bool, n)
		for _, ph := range a.Phases {
			for _, id := range ph.Buffers {
				if seen[id] {
					return false // duplicate assignment
				}
				seen[id] = true
			}
		}
		for id, ok := range seen {
			if !ok || a.PhaseOf[id] < 0 {
				return false // unassigned buffer
			}
			// PhaseOf must agree with phase membership.
			found := false
			for _, b := range a.Phases[a.PhaseOf[id]].Buffers {
				if b == id {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroupFigure1Example(t *testing.T) {
	// Approximate the paper's Figure 1 / §5.3 example: three contention
	// humps separated by troughs — grouping must produce at least three
	// phases and the hump members must share a phase with their hump.
	p := &buffers.Problem{Memory: 12}
	add := func(start, end, size int64) {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: start, End: end, Size: size})
	}
	// Hump 1: near-full memory in [0, 10).
	add(0, 10, 6)
	add(0, 10, 6)
	// Trough, then hump 2 in [15, 25).
	add(15, 25, 6)
	add(15, 25, 5)
	// Trough, then hump 3 in [30, 40).
	add(30, 40, 11)
	p.Normalize()
	a := Group(p)
	if a.PhaseOf[0] != a.PhaseOf[1] {
		t.Errorf("hump 1 split across phases: %v", a.PhaseOf)
	}
	if a.PhaseOf[2] != a.PhaseOf[3] {
		t.Errorf("hump 2 split across phases: %v", a.PhaseOf)
	}
	distinct := map[int]bool{a.PhaseOf[0]: true, a.PhaseOf[2]: true, a.PhaseOf[4]: true}
	if len(distinct) != 3 {
		t.Errorf("humps not in three distinct phases: %v", a.PhaseOf)
	}
}

func TestSplitIndependent(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 5, Size: 1},
			{Start: 3, End: 8, Size: 1},
			{Start: 8, End: 12, Size: 1}, // touches but does not overlap t=8
			{Start: 10, End: 15, Size: 1},
			{Start: 20, End: 25, Size: 1},
		},
		Memory: 10,
	}
	p.Normalize()
	groups := SplitIndependent(p)
	if len(groups) != 3 {
		t.Fatalf("got %d groups %v, want 3", len(groups), groups)
	}
	want := [][]int{{0, 1}, {2, 3}, {4}}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Errorf("group %d = %v, want %v", i, groups[i], want[i])
			continue
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Errorf("group %d = %v, want %v", i, groups[i], want[i])
			}
		}
	}
}

func TestSplitIndependentSingleComponent(t *testing.T) {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 1},
			{Start: 5, End: 15, Size: 1},
		},
		Memory: 10,
	}
	p.Normalize()
	groups := SplitIndependent(p)
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Errorf("groups = %v, want one group of two", groups)
	}
	if SplitIndependent(&buffers.Problem{}) != nil {
		t.Error("empty problem should return nil groups")
	}
}

func TestSplitIndependentCoversAllBuffers(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &buffers.Problem{Memory: 100}
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			start := rng.Int63n(60)
			p.Buffers = append(p.Buffers, buffers.Buffer{
				Start: start, End: start + 1 + rng.Int63n(15), Size: 1,
			})
		}
		p.Normalize()
		groups := SplitIndependent(p)
		seen := make([]bool, n)
		for gi, g := range groups {
			for _, id := range g {
				if seen[id] {
					return false
				}
				seen[id] = true
				// No buffer may overlap a buffer in a different group.
				for gj, h := range groups {
					if gi == gj {
						continue
					}
					for _, other := range h {
						if p.Buffers[id].OverlapsInTime(p.Buffers[other]) {
							return false
						}
					}
				}
			}
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// groupOracle is the ranges × buffers Group that the binary search
// replaced, kept as a test oracle: at each threshold it walks the ranges in
// time order and, for each, scans every buffer for the unassigned ones
// overlapping it.
func groupOracle(p *buffers.Problem) *Assignment {
	n := len(p.Buffers)
	a := &Assignment{PhaseOf: make([]int, n)}
	for i := range a.PhaseOf {
		a.PhaseOf[i] = -1
	}
	if n == 0 {
		return a
	}
	profile := buffers.Contention(p)
	assigned := 0
	for _, pct := range thresholds {
		if assigned == n {
			break
		}
		threshold := int64(pct) * p.Memory / 100
		for _, r := range highContentionRanges(profile, threshold) {
			var ph *Phase
			for id, b := range p.Buffers {
				if a.PhaseOf[id] >= 0 || !r.Overlaps(b) {
					continue
				}
				if ph == nil {
					a.Phases = append(a.Phases, Phase{Region: r, ThresholdPct: pct})
					ph = &a.Phases[len(a.Phases)-1]
				}
				ph.Buffers = append(ph.Buffers, id)
				a.PhaseOf[id] = len(a.Phases) - 1
				assigned++
			}
		}
	}
	if assigned < n {
		lo, hi := p.TimeHorizon()
		a.Phases = append(a.Phases, Phase{Region: Region{lo, hi}})
		idx := len(a.Phases) - 1
		ph := &a.Phases[idx]
		for id := range p.Buffers {
			if a.PhaseOf[id] < 0 {
				ph.Buffers = append(ph.Buffers, id)
				a.PhaseOf[id] = idx
			}
		}
	}
	return a
}

// sameGroups fails the test unless Group and its oracle agree on p.
func sameGroups(t testing.TB, name string, p *buffers.Problem) {
	t.Helper()
	want, got := groupOracle(p), Group(p)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: Group differs from the oracle:\noracle %+v\ngot    %+v", name, want, got)
	}
}

// TestGroupMatchesOracle: the large proxies, every model proxy at three
// seeds and the adversarial families, each at 50–200% of its contention
// peak, group exactly as the ranges × buffers scan grouped them.
func TestGroupMatchesOracle(t *testing.T) {
	var names []string
	var bases []*buffers.Problem
	add := func(name string, p *buffers.Problem) {
		names = append(names, name)
		bases = append(bases, p)
	}
	add("DeepChain-2K", workload.GenDeepChain(1))
	add("Transformer-24L", workload.GenTransformer(1))
	for s := int64(1); s <= 3; s++ {
		for _, m := range workload.Models {
			add(fmt.Sprintf("%s/s%d", m.Name, s), m.Generate(s))
		}
		add(fmt.Sprintf("AlignmentHostile/s%d", s), workload.AlignmentHostile(40, s))
		add(fmt.Sprintf("NearCapacityPack/s%d", s), workload.NearCapacityPack(24, s))
		add(fmt.Sprintf("SkinnyFatMix/s%d", s), workload.SkinnyFatMix(24, s))
		add(fmt.Sprintf("AlignTrap/s%d", s), workload.AlignTrap(s))
		add(fmt.Sprintf("TinyModelGraph/s%d", s), workload.TinyModelGraph(s))
	}
	checked := 0
	for i, base := range bases {
		peak := buffers.Contention(base).Peak()
		for pct := int64(50); pct <= 200; pct += 15 {
			p := base.Clone()
			p.Memory = peak * pct / 100
			sameGroups(t, fmt.Sprintf("%s@%d", names[i], pct), p)
			checked++
		}
	}
	t.Logf("%d problems match", checked)
}

// FuzzGroupEquivalence decodes a small problem from bytes — a memory ratio
// byte (percent of the contention peak, 40–295), then up to 24 buffers of
// three bytes each: start, length, size — and requires Group to match its
// oracle. Narrow times make ties and touching ranges common.
func FuzzGroupEquivalence(f *testing.F) {
	f.Add([]byte{60, 0, 4, 5, 2, 6, 5, 9, 3, 1, 9, 0, 7})
	f.Add([]byte{10, 0, 9, 9, 0, 9, 9, 10, 2, 1, 12, 4, 2, 20, 1, 9})
	f.Add([]byte{200, 3, 3, 3, 6, 3, 3, 6, 1, 8, 1, 7, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		ratio := 40 + int64(data[0])
		p := &buffers.Problem{}
		for rest := data[1:]; len(rest) >= 3 && len(p.Buffers) < 24; rest = rest[3:] {
			start := int64(rest[0] % 24)
			p.Buffers = append(p.Buffers, buffers.Buffer{
				Start: start,
				End:   start + 1 + int64(rest[1]%12),
				Size:  1 + int64(rest[2]%32),
			})
		}
		p.Memory = max(1, buffers.Contention(p).Peak()*ratio/100)
		sameGroups(t, "fuzz", p)
	})
}

package intervals

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestLowestFit(t *testing.T) {
	occ := []Interval{{4, 8}, {12, 16}}
	cases := []struct {
		size, align, minPos, limit int64
		want                       int64
		ok                         bool
	}{
		{4, 1, 0, 32, 0, true},   // fits before first interval
		{5, 1, 0, 32, 16, true},  // must go after everything (gap 8..12 too small)
		{4, 1, 2, 32, 8, true},   // minPos pushes past [0,4)
		{4, 8, 0, 32, 0, true},   // aligned at 0
		{4, 8, 1, 32, 8, true},   // aligned up collides with [4,8)? pos=8 works
		{3, 1, 0, 7, 0, true},    // tight limit
		{8, 1, 9, 16, 0, false},  // nothing fits
		{4, 16, 0, 20, 0, true},  // pos 0 fits before [4,8)
		{4, 16, 1, 20, 16, true}, // minPos 1 aligns up to 16
		{4, 16, 1, 19, 0, false}, // aligned candidate exceeds limit
	}
	for i, c := range cases {
		got, ok := LowestFit(occ, c.size, c.align, c.minPos, c.limit)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("case %d: LowestFit = (%d, %v), want (%d, %v)", i, got, ok, c.want, c.ok)
		}
	}
}

func TestLowestFitEmptyOccupied(t *testing.T) {
	got, ok := LowestFit(nil, 4, 8, 3, 32)
	if !ok || got != 8 {
		t.Errorf("LowestFit = (%d, %v), want (8, true)", got, ok)
	}
}

func TestBestFit(t *testing.T) {
	occ := []Interval{{0, 4}, {10, 12}, {20, 30}}
	// Gaps: [4,10) len 6, [12,20) len 8, [30,limit).
	got, ok := BestFit(occ, 5, 1, 30)
	if !ok || got != 4 {
		t.Errorf("BestFit size 5 = (%d, %v), want (4, true)", got, ok)
	}
	got, ok = BestFit(occ, 7, 1, 30)
	if !ok || got != 12 {
		t.Errorf("BestFit size 7 = (%d, %v), want (12, true)", got, ok)
	}
	got, ok = BestFit(occ, 2, 1, 40)
	// exact-tightness preference: gap [30,40) has len 10; [4,10) len 6 is tighter... but [10,12) is occupied.
	if !ok || got != 4 {
		t.Errorf("BestFit size 2 = (%d, %v), want (4, true)", got, ok)
	}
	if _, ok = BestFit(occ, 11, 1, 30); ok {
		t.Error("BestFit found room for an impossible request")
	}
}

func TestBestFitAlignment(t *testing.T) {
	occ := []Interval{{0, 3}}
	got, ok := BestFit(occ, 4, 8, 16)
	if !ok || got != 8 {
		t.Errorf("BestFit aligned = (%d, %v), want (8, true)", got, ok)
	}
}

func TestSortAndMerge(t *testing.T) {
	in := []Interval{{10, 12}, {0, 5}, {4, 6}, {12, 14}}
	got := SortAndMerge(in)
	want := []Interval{{0, 6}, {10, 14}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortAndMerge = %v, want %v", got, want)
	}
	if got := SortAndMerge(nil); len(got) != 0 {
		t.Errorf("SortAndMerge(nil) = %v", got)
	}
}

func TestPropertyLowestFitIsValidAndMinimal(t *testing.T) {
	// Property: the result of LowestFit never intersects occupied intervals,
	// respects alignment/minPos/limit, and no lower valid position exists.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ivs []Interval
		for i := 0; i < rng.Intn(8); i++ {
			lo := rng.Int63n(100)
			ivs = append(ivs, Interval{lo, lo + 1 + rng.Int63n(20)})
		}
		occ := SortAndMerge(ivs)
		size := 1 + rng.Int63n(10)
		align := []int64{1, 2, 4, 8}[rng.Intn(4)]
		minPos := rng.Int63n(30)
		limit := int64(150)
		pos, ok := LowestFit(occ, size, align, minPos, limit)
		valid := func(p int64) bool {
			if p < minPos || p%align != 0 || p+size > limit {
				return false
			}
			for _, iv := range occ {
				if p < iv.Hi && iv.Lo < p+size {
					return false
				}
			}
			return true
		}
		if ok {
			if !valid(pos) {
				return false
			}
			for p := int64(0); p < pos; p += align {
				if p >= minPos && valid(p) {
					return false // found something lower
				}
			}
			return true
		}
		// Claimed impossible: verify by brute force.
		for p := int64(0); p+size <= limit; p += align {
			if valid(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sortAndMergeOracle is SortAndMerge on the reflective sort.Slice it used
// before slices.SortFunc.
func sortAndMergeOracle(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// TestSortAndMergeMatchesSortSlice: on random intervals with many equal
// Los, SortAndMerge returns exactly what the sort.Slice version returns,
// and allocates nothing.
func TestSortAndMergeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		ivs := make([]Interval, n)
		for j := range ivs {
			lo := rng.Int63n(1+int64(n)/2) * 4 // few distinct Los
			ivs[j] = Interval{lo, lo + 1 + rng.Int63n(12)}
		}
		want := sortAndMergeOracle(slices.Clone(ivs))
		if got := SortAndMerge(slices.Clone(ivs)); !slices.Equal(got, want) {
			t.Fatalf("SortAndMerge(%v) = %v, sort.Slice version %v", ivs, got, want)
		}
	}
	scratch := make([]Interval, 64)
	if allocs := testing.AllocsPerRun(20, func() {
		for j := range scratch {
			lo := int64(j*7%16) * 3
			scratch[j] = Interval{lo, lo + 5}
		}
		SortAndMerge(scratch)
	}); allocs != 0 {
		t.Errorf("SortAndMerge allocates %.1f objects per call, want 0", allocs)
	}
}

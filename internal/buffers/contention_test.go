package buffers

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestContentionSimple(t *testing.T) {
	p := &Problem{Buffers: []Buffer{
		{Start: 0, End: 10, Size: 4},
		{Start: 2, End: 6, Size: 8},
		{Start: 8, End: 12, Size: 2},
	}, Memory: 100}
	p.Normalize()
	prof := Contention(p)
	wantAt := map[int64]int64{
		0:  4,
		1:  4,
		2:  12,
		5:  12,
		6:  4,
		8:  6,
		9:  6,
		10: 2,
		11: 2,
		12: 0, // after everything ends
		99: 0,
	}
	for tm, want := range wantAt {
		if got := prof.At(tm); got != want {
			t.Errorf("At(%d) = %d, want %d", tm, got, want)
		}
	}
	if got := prof.Peak(); got != 12 {
		t.Errorf("Peak = %d, want 12", got)
	}
	if got := prof.MaxOver(6, 12); got != 6 {
		t.Errorf("MaxOver(6,12) = %d, want 6", got)
	}
	if got := prof.MaxOver(0, 3); got != 12 {
		t.Errorf("MaxOver(0,3) = %d, want 12", got)
	}
}

func TestContentionEmpty(t *testing.T) {
	prof := Contention(&Problem{})
	if len(prof.Steps) != 0 || prof.Peak() != 0 || prof.At(5) != 0 {
		t.Errorf("empty problem produced non-empty profile: %+v", prof)
	}
}

func TestContentionStepsAreContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 50)
	prof := Contention(p)
	for i := 1; i < len(prof.Steps); i++ {
		if prof.Steps[i].Start != prof.Steps[i-1].End {
			t.Fatalf("steps %d and %d not contiguous: %+v %+v", i-1, i, prof.Steps[i-1], prof.Steps[i])
		}
	}
	if last := prof.Steps[len(prof.Steps)-1]; last.Contention != 0 {
		// The final step (after all Ends) must have zero contention only if
		// it exists; our sweep stops at the last event so the last step ends
		// exactly at the global max End.
		_, hi := p.TimeHorizon()
		if last.End != hi {
			t.Fatalf("profile does not end at the horizon: %+v vs %d", last, hi)
		}
	}
}

func TestBufferContentionMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 2+rng.Intn(30))
		got := BufferContention(p)
		for i, b := range p.Buffers {
			var want int64
			for tm := b.Start; tm < b.End; tm++ {
				var c int64
				for _, o := range p.Buffers {
					if o.Start <= tm && tm < o.End {
						c += o.Size
					}
				}
				if c > want {
					want = c
				}
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPeakIsLowerBoundOnAnyValidPacking(t *testing.T) {
	// Property: peak contention <= peak usage of any valid solution.
	p := &Problem{Buffers: []Buffer{
		{Start: 0, End: 4, Size: 6},
		{Start: 2, End: 8, Size: 6},
		{Start: 6, End: 10, Size: 6},
	}, Memory: 100}
	p.Normalize()
	s := &Solution{Offsets: []int64{0, 6, 0}}
	if err := s.Validate(p); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if peak := Contention(p).Peak(); peak > s.PeakUsage(p) {
		t.Errorf("contention peak %d exceeds packing peak %d", peak, s.PeakUsage(p))
	}
}

// TestRemoveMatchesFreshProfile: a profile with buffers removed reads, at
// every time, like the profile built from the remaining buffers alone, and
// has the same peak.
func TestRemoveMatchesFreshProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		p := randomProblem(rng, 1+rng.Intn(30))
		prof := Contention(p)
		var kept []int
		for id, b := range p.Buffers {
			if rng.Intn(3) == 0 {
				prof.Remove(b)
			} else {
				kept = append(kept, id)
			}
		}
		fresh := Contention(p.Subset(kept))
		if prof.Peak() != fresh.Peak() {
			t.Fatalf("problem %d: peak %d after removals, fresh %d", i, prof.Peak(), fresh.Peak())
		}
		for _, b := range p.Buffers {
			for _, at := range []int64{b.Start, b.End - 1, b.End} {
				if prof.At(at) != fresh.At(at) {
					t.Fatalf("problem %d: contention at %d is %d after removals, fresh %d", i, at, prof.At(at), fresh.At(at))
				}
			}
		}
	}
}

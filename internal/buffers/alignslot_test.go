package buffers_test

import (
	"fmt"
	"math/rand"
	"testing"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/check"
	"telamalloc/internal/ilp"
	"telamalloc/internal/workload"
)

// slotInstance decodes a small aligned problem from data, three bytes a
// buffer: start, length and alignment from the first two, size from the
// third, and memory the contention peak plus the last byte mod 16. The
// alignments include 6, a multiple of 2 that is no power of two.
func slotInstance(data []byte) *buffers.Problem {
	aligns := []int64{1, 2, 4, 8, 6}
	p := &buffers.Problem{}
	for i := 0; i+2 < len(data) && i < 3*8; i += 3 {
		start := int64(data[i] % 6)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start,
			End:   start + 1 + int64(data[i+1]%4),
			Size:  1 + int64(data[i+2]%12),
			Align: aligns[int(data[i+1]/4)%len(aligns)],
		})
	}
	p.Normalize()
	p.Memory = max(1, buffers.Contention(p).Peak())
	if len(data) > 0 {
		p.Memory += int64(data[len(data)-1] % 16)
	}
	return p
}

func public(p *buffers.Problem) telamalloc.Problem {
	q := telamalloc.Problem{Memory: p.Memory}
	for _, b := range p.Buffers {
		q.Buffers = append(q.Buffers, telamalloc.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align})
	}
	return q
}

// slotBoundHolds checks the bound against the checker's independent
// recomputation and, when the exact oracle packs p, against the packing:
// no packing uses less memory than the bound. It reports whether the
// oracle decided p and whether it packed it.
func slotBoundHolds(p *buffers.Problem) (decided, packed bool, err error) {
	bound := buffers.AlignSlotBound(p)
	if want := check.AlignSlotBound(public(p)); bound != want {
		return false, false, fmt.Errorf("AlignSlotBound = %d, independent recomputation %d", bound, want)
	}
	if p.Validate() != nil {
		return false, false, nil
	}
	res := ilp.Solve(p, nil, ilp.Options{MaxSteps: 200000})
	switch res.Status {
	case ilp.Solved:
		if err := res.Solution.Validate(p); err != nil {
			return true, true, fmt.Errorf("the exact oracle's packing is invalid: %v", err)
		}
		if used := res.Solution.PeakUsage(p); bound > used {
			return true, true, fmt.Errorf("bound %d above a valid packing's peak %d (memory %d)", bound, used, p.Memory)
		}
		return true, true, nil
	case ilp.Infeasible:
		return true, false, nil
	}
	return false, false, nil
}

// TestAlignSlotBoundNeverExceedsAPacking: on random small aligned
// instances, every packing the exact oracle finds uses at least the bound,
// and the bound proves some instances infeasible that fit under their
// contention peak.
func TestAlignSlotBoundNeverExceedsAPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var packed, infeasible, proved int
	for i := 0; i < 600; i++ {
		data := make([]byte, 3*(2+rng.Intn(6))+1)
		rng.Read(data)
		p := slotInstance(data)
		decided, ok, err := slotBoundHolds(p)
		if err != nil {
			t.Fatalf("instance %d %v: %v", i, p.Buffers, err)
		}
		switch {
		case ok:
			packed++
		case decided:
			infeasible++
			if buffers.AlignSlotBound(p) > p.Memory {
				proved++
			}
		}
	}
	t.Logf("%d packed, %d infeasible, %d of them proved by the bound", packed, infeasible, proved)
	if packed < 100 || proved == 0 {
		t.Errorf("%d packed and %d proved: the corpus no longer exercises the bound", packed, proved)
	}
}

// TestAlignSlotBoundAlignmentHostile pins the values that prove the three
// alignment-hostile-40 spill-tight problems infeasible, though each fits
// under its contention peak.
func TestAlignSlotBoundAlignmentHostile(t *testing.T) {
	for seed, want := range map[int64]int64{1: 301, 2: 321, 3: 285} {
		p := workload.AlignmentHostile(40, seed)
		got, peak := buffers.AlignSlotBound(p), buffers.Contention(p).Peak()
		if got != want || peak > p.Memory || got <= p.Memory {
			t.Errorf("s%d: bound %d (want %d), peak %d, memory %d", seed, got, want, peak, p.Memory)
		}
	}
	if got := buffers.AlignSlotBound(workload.NonOverlapping(50, 1)); got != 0 {
		t.Errorf("bound %d on a problem without aligned buffers, want 0", got)
	}
}

func FuzzAlignSlotBound(f *testing.F) {
	f.Add([]byte{0, 8, 9, 1, 8, 6, 2, 16, 7, 3})
	f.Add([]byte{0, 12, 5, 0, 13, 5, 0, 14, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := slotInstance(data)
		if _, _, err := slotBoundHolds(p); err != nil {
			t.Fatalf("%v: %v", p.Buffers, err)
		}
	})
}

package buffers_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"telamalloc/internal/buffers"
	"telamalloc/internal/heuristics"
	"telamalloc/internal/intervals"
	"telamalloc/internal/phases"
	"telamalloc/internal/workload"
)

type sweepEvent struct {
	t     int64
	id    int
	start bool
}

func recordSweep(p *buffers.Problem) (events []sweepEvent, lives [][]int) {
	buffers.Sweep(p, func(t int64, id int, start bool, live []int) {
		events = append(events, sweepEvent{t, id, start})
		var sorted []int
		if len(live) > 0 {
			sorted = slices.Clone(live)
			slices.Sort(sorted)
		}
		lives = append(lives, sorted)
	})
	return events, lives
}

// TestSweepTieRule pins the one tie rule every live-range algorithm relies
// on: End is exclusive, so at equal times ends come before starts, and
// buffer index breaks the remaining ties. A buffer ending at t and one
// starting at t form no overlap pair, the split cuts at t, and the
// contention step starting at t excludes the ended buffer.
func TestSweepTieRule(t *testing.T) {
	p := &buffers.Problem{Memory: 100, Buffers: []buffers.Buffer{
		{Start: 4, End: 6, Size: 2},
		{Start: 0, End: 4, Size: 1},
		{Start: 4, End: 6, Size: 4},
		{Start: 0, End: 4, Size: 8},
	}}
	p.Normalize()

	events, lives := recordSweep(p)
	wantEvents := []sweepEvent{
		{0, 1, true}, {0, 3, true},
		{4, 1, false}, {4, 3, false},
		{4, 0, true}, {4, 2, true},
		{6, 0, false}, {6, 2, false},
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Fatalf("event order\n got %v\nwant %v", events, wantEvents)
	}
	if len(lives[4]) != 0 {
		t.Errorf("buffer 0 starts at t=4 with %v live; the buffers ending at 4 must be gone", lives[4])
	}
	ov := buffers.ComputeOverlaps(p)
	if ov.PairCount != 2 || ov.Overlapping(1, 0) || ov.Overlapping(3, 2) || !ov.Overlapping(0, 2) || !ov.Overlapping(1, 3) {
		t.Errorf("overlaps across the t=4 boundary: %+v", ov)
	}
	if got, want := phases.SplitIndependent(p), [][]int{{1, 3}, {0, 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("split %v, want %v (a cut at t=4)", got, want)
	}
	wantSteps := []buffers.ContentionStep{{Start: 0, End: 4, Contention: 9}, {Start: 4, End: 6, Contention: 6}}
	if got := buffers.Contention(p).Steps; !reflect.DeepEqual(got, wantSteps) {
		t.Errorf("contention %v, want %v", got, wantSteps)
	}
	// Buffers ending at 4 may share addresses with buffers starting at 4.
	if err := (&buffers.Solution{Offsets: []int64{0, 0, 2, 1}}).Validate(p); err != nil {
		t.Errorf("temporally disjoint reuse rejected: %v", err)
	}
}

// TestSweepLiveSetContract checks, on problems with many tied times, that
// events come in the contract's order and that each sees exactly the
// buffers live before it.
func TestSweepLiveSetContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	before := func(a, b sweepEvent) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		if a.start != b.start {
			return !a.start
		}
		return a.id < b.id
	}
	for trial := 0; trial < 300; trial++ {
		p := tiedProblem(rng, rng.Intn(30))
		events, lives := recordSweep(p)
		if len(events) != 2*len(p.Buffers) {
			t.Fatalf("trial %d: %d events for %d buffers", trial, len(events), len(p.Buffers))
		}
		for k, ev := range events {
			if k > 0 && !before(events[k-1], ev) {
				t.Fatalf("trial %d: event %v after %v", trial, ev, events[k-1])
			}
			var want []int
			for j, b := range p.Buffers {
				startedBefore := b.Start < ev.t || (b.Start == ev.t && ev.start && j < ev.id)
				endedBefore := b.End < ev.t || (b.End == ev.t && (ev.start || j < ev.id))
				if startedBefore && !endedBefore {
					want = append(want, j)
				}
			}
			if !reflect.DeepEqual(lives[k], want) {
				t.Fatalf("trial %d: event %v sees live %v, want %v", trial, ev, lives[k], want)
			}
		}
	}
}

// tiedProblem builds n buffers on a short time axis, so that many starts
// and ends coincide.
func tiedProblem(rng *rand.Rand, n int) *buffers.Problem {
	span := 2 + rng.Int63n(10)
	p := &buffers.Problem{Name: "tied"}
	for i := 0; i < n; i++ {
		start := rng.Int63n(span)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start,
			End:   start + 1 + rng.Int63n(span),
			Size:  1 + rng.Int63n(64),
			Align: []int64{0, 1, 2, 4, 8}[rng.Intn(5)],
		})
	}
	p.Normalize()
	p.Memory = max(1, buffers.Contention(p).Peak())
	return p
}

// sweepCorpus is the oracle corpus: every model proxy, the stress models,
// the micro and adversarial generators, and random problems with many tied
// times.
func sweepCorpus() []*buffers.Problem {
	var out []*buffers.Problem
	add := func(p *buffers.Problem) {
		if p.Memory == 0 {
			p.Memory = buffers.Contention(p).Peak()
		}
		out = append(out, p)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, m := range workload.Models {
			add(m.Generate(seed))
		}
	}
	for _, m := range workload.StressModels {
		add(m.Generate(1))
	}
	for _, n := range []int{1, 10, 1000} {
		add(workload.NonOverlapping(n, 1))
		add(workload.FullOverlap(n/4+1, 1))
	}
	for seed := int64(1); seed <= 100; seed++ {
		add(workload.Random(seed, 100+int(seed%10)))
	}
	for seed := int64(1); seed <= 10; seed++ {
		add(workload.MultiComponent(1+int(seed%4), 12, 105, seed))
	}
	for seed := int64(1); seed <= 30; seed++ {
		n := 4 + int(seed%12)
		add(workload.NearCapacityPack(n, seed))
		add(workload.SkinnyFatMix(n, seed))
		add(workload.AlignmentHostile(n, seed))
		add(workload.AlignTrap(seed))
		add(workload.TinyModelGraph(seed))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 900; i++ {
		add(tiedProblem(rng, rng.Intn(80)))
	}
	return out
}

// TestSweepMatchesReference runs the six Sweep-based functions against the
// hand-rolled walks they replaced, on the whole oracle corpus.
func TestSweepMatchesReference(t *testing.T) {
	corpus := sweepCorpus()
	for i, p := range corpus {
		if err := sweepEquivalence(p); err != nil {
			t.Fatalf("problem %d (%s, %d buffers): %v", i, p.Name, len(p.Buffers), err)
		}
	}
	t.Logf("%d problems identical", len(corpus))
}

// FuzzSweepEquivalence decodes each 3-byte group into one buffer on a short
// time axis (so ties are common) and compares the six Sweep-based functions
// with the hand-rolled walks they replaced.
func FuzzSweepEquivalence(f *testing.F) {
	f.Add([]byte{0, 3, 7, 4, 1, 2, 0, 3, 200, 4, 1, 9})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 2, 0, 64, 2, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &buffers.Problem{}
		for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
			start := int64(data[i] % 12)
			p.Buffers = append(p.Buffers, buffers.Buffer{
				Start: start,
				End:   start + 1 + int64(data[i+1]%6),
				Size:  1 + int64(data[i+2]%32),
				Align: int64(1) << (data[i+2] >> 5 % 4),
			})
		}
		p.Normalize()
		p.Memory = max(1, refContention(p).Peak())
		if err := sweepEquivalence(p); err != nil {
			t.Fatal(err)
		}
		// Offsets read from the input exercise Validate on arbitrary,
		// mostly invalid packings.
		s := buffers.NewSolution(len(p.Buffers))
		for i := range s.Offsets {
			s.Offsets[i] = int64(data[3*i+1] % 16)
		}
		if err := sameVerdict(s, p); err != nil {
			t.Fatal(err)
		}
	})
}

// sweepEquivalence compares contention profiles, overlaps, Validate
// verdicts, best-fit packings and peaks, usage profiles, and components
// with their member order.
func sweepEquivalence(p *buffers.Problem) error {
	if got, want := buffers.Contention(p), refContention(p); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Contention:\n got %v\nwant %v", got, want)
	}
	if got, want := buffers.ComputeOverlaps(p), refComputeOverlaps(p); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("ComputeOverlaps: got %d pairs, want %d", got.PairCount, want.PairCount)
	}
	if got, want := phases.SplitIndependent(p), refSplitIndependent(p); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("SplitIndependent:\n got %v\nwant %v", got, want)
	}
	bf, peak := heuristics.BestFitUnbounded(p)
	wantBF, wantPeak := refBestFitUnbounded(p)
	if peak != wantPeak || !reflect.DeepEqual(bf, wantBF) {
		return fmt.Errorf("BestFitUnbounded: peak %d, want %d; offsets equal %v", peak, wantPeak, reflect.DeepEqual(bf, wantBF))
	}
	greedy, _ := heuristics.GreedyContentionUnbounded(p)
	zero := &buffers.Solution{Offsets: make([]int64, len(p.Buffers))}
	nudged := bf.Clone()
	for i := range nudged.Offsets {
		if i%3 == 0 {
			nudged.Offsets[i] += int64(i % 5)
		}
	}
	roomy := p.Clone()
	roomy.Memory = buffers.MaxMemory
	for _, s := range []*buffers.Solution{bf, greedy, zero, nudged} {
		if got, want := heuristics.UsageProfile(p, s), refUsageProfile(p, s); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("UsageProfile:\n got %v\nwant %v", got, want)
		}
		if err := sameVerdict(s, p); err != nil {
			return err
		}
		if err := sameVerdict(s, roomy); err != nil {
			return err
		}
	}
	return nil
}

// sameVerdict compares Validate with the reference's: both accept, or both
// reject with the same sentinel. Which overlapping pair a rejection names
// may differ, because the reference walks its live set in map order.
func sameVerdict(s *buffers.Solution, p *buffers.Problem) error {
	got, want := s.Validate(p), refValidate(s, p)
	sentinel := func(err error) error {
		for _, e := range []error{buffers.ErrWrongBuffers, buffers.ErrUnassigned, buffers.ErrOutOfBounds, buffers.ErrMisaligned, buffers.ErrOverlap} {
			if errors.Is(err, e) {
				return e
			}
		}
		return err
	}
	if sentinel(got) != sentinel(want) {
		return fmt.Errorf("Validate(%v): got %v, want %v", s.Offsets, got, want)
	}
	return nil
}

// The reference implementations below are the hand-rolled start/end walks
// that buffers.Sweep replaced, kept verbatim as oracles.

func refContention(p *buffers.Problem) buffers.ContentionProfile {
	if len(p.Buffers) == 0 {
		return buffers.ContentionProfile{}
	}
	type delta struct {
		t int64
		d int64
	}
	deltas := make([]delta, 0, 2*len(p.Buffers))
	for _, b := range p.Buffers {
		deltas = append(deltas, delta{b.Start, b.Size}, delta{b.End, -b.Size})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].t < deltas[j].t })

	var profile buffers.ContentionProfile
	var cur int64
	prevT := deltas[0].t
	for i := 0; i < len(deltas); {
		t := deltas[i].t
		if t != prevT {
			profile.Steps = append(profile.Steps, buffers.ContentionStep{Start: prevT, End: t, Contention: cur})
			prevT = t
		}
		for i < len(deltas) && deltas[i].t == t {
			cur += deltas[i].d
			i++
		}
	}
	return profile
}

func refComputeOverlaps(p *buffers.Problem) *buffers.Overlaps {
	n := len(p.Buffers)
	ov := &buffers.Overlaps{Neighbors: make([][]int, n)}
	if n == 0 {
		return ov
	}
	type event struct {
		t     int64
		add   bool
		index int
	}
	events := make([]event, 0, 2*n)
	for i, b := range p.Buffers {
		events = append(events, event{b.Start, true, i}, event{b.End, false, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return !events[a].add && events[b].add // process ends first (End exclusive)
	})
	live := make([]int, 0, n)
	for _, ev := range events {
		if !ev.add {
			for k, id := range live {
				if id == ev.index {
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
			continue
		}
		for _, id := range live {
			ov.Neighbors[id] = append(ov.Neighbors[id], ev.index)
			ov.Neighbors[ev.index] = append(ov.Neighbors[ev.index], id)
			ov.PairCount++
		}
		live = append(live, ev.index)
	}
	for i := range ov.Neighbors {
		sort.Ints(ov.Neighbors[i])
	}
	return ov
}

func refValidate(s *buffers.Solution, p *buffers.Problem) error {
	if len(s.Offsets) != len(p.Buffers) {
		return fmt.Errorf("%w: got %d offsets for %d buffers", buffers.ErrWrongBuffers, len(s.Offsets), len(p.Buffers))
	}
	for i, b := range p.Buffers {
		off := s.Offsets[i]
		switch {
		case off < 0:
			return fmt.Errorf("%w: %v", buffers.ErrUnassigned, b)
		case off+b.Size > p.Memory:
			return fmt.Errorf("%w: %v at %d (memory=%d)", buffers.ErrOutOfBounds, b, off, p.Memory)
		case b.Align > 1 && off%b.Align != 0:
			return fmt.Errorf("%w: %v at %d", buffers.ErrMisaligned, b, off)
		}
	}
	type event struct {
		t     int64
		add   bool
		index int
	}
	events := make([]event, 0, 2*len(p.Buffers))
	for i, b := range p.Buffers {
		events = append(events, event{b.Start, true, i}, event{b.End, false, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return !events[a].add && events[b].add
	})
	live := make(map[int]struct{})
	for _, ev := range events {
		if !ev.add {
			delete(live, ev.index)
			continue
		}
		nb := p.Buffers[ev.index]
		noff := s.Offsets[ev.index]
		for j := range live {
			ob := p.Buffers[j]
			ooff := s.Offsets[j]
			if noff < ooff+ob.Size && ooff < noff+nb.Size {
				return fmt.Errorf("%w: %v at %d and %v at %d", buffers.ErrOverlap, nb, noff, ob, ooff)
			}
		}
		live[ev.index] = struct{}{}
	}
	return nil
}

func refBestFitUnbounded(p *buffers.Problem) (*buffers.Solution, int64) {
	n := len(p.Buffers)
	sol := buffers.NewSolution(n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := p.Buffers[order[i]], p.Buffers[order[j]]
		if bi.Start != bj.Start {
			return bi.Start < bj.Start
		}
		return order[i] < order[j]
	})
	const unbounded = int64(1) << 62
	var peak int64
	occ := make([]intervals.Interval, 0, n)
	for _, id := range order {
		b := p.Buffers[id]
		occ = occ[:0]
		for j, o := range p.Buffers {
			if sol.Offsets[j] >= 0 && o.Start <= b.Start && b.Start < o.End {
				occ = append(occ, intervals.Interval{Lo: sol.Offsets[j], Hi: sol.Offsets[j] + o.Size})
			}
		}
		merged := intervals.SortAndMerge(occ)
		pos, ok := intervals.BestFit(merged, b.Size, b.Align, unbounded)
		if !ok {
			pos = 0
		}
		sol.Offsets[id] = pos
		if pos+b.Size > peak {
			peak = pos + b.Size
		}
		occ = merged
	}
	return sol, peak
}

func refUsageProfile(p *buffers.Problem, sol *buffers.Solution) []buffers.ContentionStep {
	type event struct {
		t     int64
		add   bool
		index int
	}
	events := make([]event, 0, 2*len(p.Buffers))
	for i, b := range p.Buffers {
		events = append(events, event{b.Start, true, i}, event{b.End, false, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return !events[a].add && events[b].add
	})
	live := map[int]struct{}{}
	var steps []buffers.ContentionStep
	var prevT int64
	first := true
	for i := 0; i < len(events); {
		t := events[i].t
		if !first && t != prevT {
			var top int64
			for id := range live {
				if end := sol.Offsets[id] + p.Buffers[id].Size; end > top {
					top = end
				}
			}
			steps = append(steps, buffers.ContentionStep{Start: prevT, End: t, Contention: top})
		}
		for i < len(events) && events[i].t == t {
			if events[i].add {
				live[events[i].index] = struct{}{}
			} else {
				delete(live, events[i].index)
			}
			i++
		}
		prevT = t
		first = false
	}
	return steps
}

func refSplitIndependent(p *buffers.Problem) [][]int {
	n := len(p.Buffers)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := p.Buffers[order[i]], p.Buffers[order[j]]
		if bi.Start != bj.Start {
			return bi.Start < bj.Start
		}
		return order[i] < order[j]
	})
	var groups [][]int
	cur := []int{order[0]}
	maxEnd := p.Buffers[order[0]].End
	for _, id := range order[1:] {
		b := p.Buffers[id]
		if b.Start >= maxEnd {
			groups = append(groups, cur)
			cur = nil
		}
		cur = append(cur, id)
		if b.End > maxEnd {
			maxEnd = b.End
		}
	}
	groups = append(groups, cur)
	return groups
}

package cp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"telamalloc/internal/buffers"
	"telamalloc/internal/workload"
)

// lockstep applies every operation to a Model and to the reference engine
// and fails at the first observable difference: bounds, placements, pair
// orders, Stats (PairWakeups included), the returned conflict or the lowest
// feasible position of an unplaced buffer, conflicted states included. After each
// operation it also recomputes Model's bitmasks and counters from scratch
// and checks the propagation invariant: at a fixpoint every pair is idle.
type lockstep struct {
	t     testing.TB
	m     *Model
	ref   *refModel
	depth int
	ops   int
}

func newLockstep(t testing.TB, p *buffers.Problem) *lockstep {
	t.Helper()
	ls := &lockstep{t: t, m: NewModel(p, nil), ref: newRefModel(p, nil)}
	ls.check("NewModel", ls.m.rootConflict, ls.ref.rootConflict)
	return ls
}

func (ls *lockstep) push() {
	ls.m.Push()
	ls.ref.Push()
	ls.depth++
	ls.check("Push", nil, nil)
}

func (ls *lockstep) pop() {
	if ls.depth == 0 {
		return
	}
	ls.m.Pop()
	ls.ref.Pop()
	ls.depth--
	ls.check("Pop", nil, nil)
}

// place places buf at pos in both engines, opening a level first at the
// root. A conflict is followed by the Pop the Model contract asks for. It
// reports whether the placement stuck.
func (ls *lockstep) place(buf int, pos int64) bool {
	if ls.depth == 0 {
		ls.push()
	}
	c := snapshot(ls.m.Place(buf, pos))
	ls.check(fmt.Sprintf("Place(%d, %d)", buf, pos), c, ls.ref.Place(buf, pos))
	if c != nil {
		ls.pop()
	}
	return c == nil
}

func (ls *lockstep) fixOrder(k int, o Order) {
	if ls.depth == 0 {
		ls.push()
	}
	c := snapshot(ls.m.FixOrder(k, o))
	ls.check(fmt.Sprintf("FixOrder(%d, %v)", k, o), c, ls.ref.FixOrder(k, o))
	if c != nil {
		ls.pop()
	}
}

// snapshot copies a conflict Model returned: the model owns it and the
// next operation overwrites it.
func snapshot(c *Conflict) *Conflict {
	if c == nil {
		return nil
	}
	dup := *c
	dup.Placements = slices.Clone(c.Placements)
	return &dup
}

func (ls *lockstep) check(op string, got, want *Conflict) {
	ls.t.Helper()
	ls.ops++
	if err := ls.diff(got, want); err != nil {
		ls.t.Fatalf("after op %d %s: %v", ls.ops, op, err)
	}
}

func (ls *lockstep) diff(got, want *Conflict) error {
	m, ref := ls.m, ls.ref
	if (got == nil) != (want == nil) {
		return fmt.Errorf("conflict %v, reference %v", got, want)
	}
	if got != nil && (got.Pair != want.Pair || got.Var != want.Var || !slices.Equal(got.Placements, want.Placements)) {
		return fmt.Errorf("conflict %+v, reference %+v", *got, *want)
	}
	if m.Stats() != ref.Stats() {
		return fmt.Errorf("stats %+v, reference %+v", m.Stats(), ref.Stats())
	}
	for i := range m.placed {
		if m.MinPos(i) != ref.MinPos(i) || m.MaxPos(i) != ref.MaxPos(i) || m.Placed(i) != ref.Placed(i) {
			return fmt.Errorf("buffer %d: [%d, %d] placed=%v, reference [%d, %d] placed=%v",
				i, m.MinPos(i), m.MaxPos(i), m.Placed(i), ref.MinPos(i), ref.MaxPos(i), ref.Placed(i))
		}
		if m.Placed(i) {
			continue
		}
		pos, ok := m.LowestFeasible(i)
		if rpos, rok := ref.LowestFeasible(i); ok != rok || (ok && pos != rpos) {
			return fmt.Errorf("buffer %d: LowestFeasible (%d, %v), reference (%d, %v)", i, pos, ok, rpos, rok)
		}
	}
	if m.NumPairs() != ref.NumPairs() {
		return fmt.Errorf("%d pairs, reference %d", m.NumPairs(), ref.NumPairs())
	}
	for k := 0; k < m.NumPairs(); k++ {
		pr, o := m.PairAt(k)
		rpr, ro := ref.PairAt(k)
		if pr != rpr || o != ro {
			return fmt.Errorf("pair %d: %v %v, reference %v %v", k, pr, o, rpr, ro)
		}
	}
	return checkGate(m, got == nil)
}

// checkGate recomputes Model's wake bookkeeping from the pair orders and
// bounds and compares it with the incrementally maintained copy. At a
// fixpoint (no conflict just returned) it also checks that no pair is
// queued and every pair is idle.
func checkGate(m *Model, fixpoint bool) error {
	bit := func(words []uint64, v int32, j int) bool {
		return words[int(m.gate[v].word)+j>>6]>>(j&63)&1 == 1
	}
	for vi := range m.placed {
		v := int32(vi)
		var cntMin, cntMax int32
		ks, _, _ := m.slots(v)
		for j, k := range ks {
			pr, o := m.pairs[k], m.order[k]
			w := pr.A
			if w == v {
				w = pr.B
			}
			if int(w) != m.ov.Neighbors[v][j] {
				return fmt.Errorf("var %d slot %d holds pair %v, want neighbour %d", v, j, pr, m.ov.Neighbors[v][j])
			}
			below := (o == AFirst && pr.A == v) || (o == BFirst && pr.B == v)
			above := (o == AFirst && pr.B == v) || (o == BFirst && pr.A == v)
			if bit(m.lowBits, v, j) != below || bit(m.upBits, v, j) != above {
				return fmt.Errorf("var %d slot %d (pair %v %v): lowBit=%v upBit=%v", v, j, pr, o,
					bit(m.lowBits, v, j), bit(m.upBits, v, j))
			}
			if o == Unknown {
				if m.posMin[w] != 0 {
					cntMin++
				}
				if m.posMax[w] != m.gate[w].rootMax {
					cntMax++
				}
			}
		}
		if g := m.gate[v]; g.cntMinT != cntMin || g.cntMaxT != cntMax {
			return fmt.Errorf("var %d counters (min %d, max %d), recomputed (min %d, max %d)",
				v, g.cntMinT, g.cntMaxT, cntMin, cntMax)
		}
	}
	if fixpoint && m.rootConflict == nil {
		for k := range m.pairs {
			if m.inQueue[k] {
				return fmt.Errorf("pair %d marked queued on a drained queue", k)
			}
			if !m.idle(int32(k)) {
				return fmt.Errorf("pair %d %v not idle at fixpoint", k, m.pairs[k])
			}
		}
	}
	return nil
}

// descend places buffers in ID order at their lowest feasible position,
// one level each, and re-places every seventh one after a Pop — the
// search's access pattern.
func (ls *lockstep) descend() {
	n := len(ls.m.placed)
	for i := 0; i < n; i++ {
		pos, ok := ls.m.LowestFeasible(i)
		if !ok {
			continue
		}
		ls.push()
		if !ls.place(i, pos) {
			continue
		}
		if i%7 == 3 {
			ls.pop()
			if pos, ok := ls.m.LowestFeasible(i); ok {
				ls.push()
				ls.place(i, pos)
			}
		}
	}
	for ls.depth > 0 {
		ls.pop()
	}
}

// run interprets ops as a sequence of Push, Place, FixOrder and Pop
// operations; every byte is consumed, so any input is a valid program.
func (ls *lockstep) run(ops []byte) {
	i := 0
	next := func() int {
		if i >= len(ops) {
			return 0
		}
		i++
		return int(ops[i-1])
	}
	n := len(ls.m.placed)
	for i < len(ops) {
		switch next() % 8 {
		case 0, 1:
			ls.push()
		case 2, 3, 4:
			buf := next() % n
			lo, hi := ls.m.MinPos(buf), ls.m.MaxPos(buf)
			pos := lo
			switch next() % 4 {
			case 0, 1:
				if p, ok := ls.m.LowestFeasible(buf); ok {
					pos = p
				}
			case 3:
				if hi > lo {
					pos = lo + int64(next()<<8|next())%(hi-lo+1)
				}
			}
			ls.place(buf, pos)
		case 5:
			if np := ls.m.NumPairs(); np > 0 {
				k := (next()<<8 | next()) % np
				o := AFirst
				if next()%2 == 1 {
					o = BFirst
				}
				ls.fixOrder(k, o)
			}
		default:
			ls.pop()
		}
	}
	for ls.depth > 0 {
		ls.pop()
	}
}

// randomProblem draws a small, often tight instance: mixed alignments and
// memory close to the buffer sizes, so orderings are forced early and some
// instances conflict at the root.
func randomProblem(rng *rand.Rand) *buffers.Problem {
	n := 2 + rng.Intn(20)
	p := &buffers.Problem{Memory: 24 + rng.Int63n(96)}
	for i := 0; i < n; i++ {
		start := rng.Int63n(12)
		p.Buffers = append(p.Buffers, buffers.Buffer{
			Start: start,
			End:   start + 1 + rng.Int63n(10),
			Size:  1 + rng.Int63n(min(24, p.Memory)),
			Align: []int64{0, 1, 2, 4, 8}[rng.Intn(5)],
		})
	}
	p.Normalize()
	return p
}

// rootInfeasible has two size-5, align-8 buffers live together in 12 bytes:
// both can only sit at 0, so the root fixpoint conflicts.
func rootInfeasible() *buffers.Problem {
	p := &buffers.Problem{
		Buffers: []buffers.Buffer{
			{Start: 0, End: 10, Size: 5, Align: 8},
			{Start: 5, End: 15, Size: 5, Align: 8},
			{Start: 20, End: 30, Size: 4},
		},
		Memory: 12,
	}
	p.Normalize()
	return p
}

func TestPropagationMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		p    *buffers.Problem
	}{
		{"queue-workload", queueWorkload()},
		{"full-overlap-60", workload.FullOverlap(60, 1)},
		{"alignment-hostile", workload.AlignmentHostile(40, 1)},
		{"root-infeasible", rootInfeasible()},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		cases = append(cases, struct {
			name string
			p    *buffers.Problem
		}{fmt.Sprintf("random-%d", i), randomProblem(rng)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ls := newLockstep(t, tc.p)
			ls.descend()
			for r := 0; r < 4; r++ {
				ops := make([]byte, 400)
				rng.Read(ops)
				ls.run(ops)
			}
			ls.descend()
		})
	}
	if c := NewModel(rootInfeasible(), nil).Place(2, 0); c == nil {
		t.Error("Place on a root-infeasible model returned no conflict")
	}
}

func FuzzPropagationEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 2, 0, 0, 2, 1, 1, 5, 0, 3, 1, 6, 2, 2, 3, 9, 9})
	f.Add(int64(7), []byte{2, 3, 0, 2, 4, 1, 5, 0, 0, 0, 7, 2, 5, 3, 1, 3})
	f.Add(int64(42), []byte{0, 0, 0, 2, 0, 0, 2, 1, 0, 2, 2, 0, 2, 3, 0, 6, 6, 6, 5, 1, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		ls := newLockstep(t, randomProblem(rand.New(rand.NewSource(seed))))
		ls.run(ops)
		ls.descend()
	})
}

// Package ilp implements the exact solver-only baseline of the paper
// (§3.2): branch-and-bound over the pairwise ordering variables of the
// 2D-bin-packing formulation. Once every ordering boolean is decided, the
// minimal positions follow from longest paths in the precedence DAG, which
// the underlying propagation engine computes as lower bounds — so a node
// with all pairs resolved and no wipeout is a solution.
//
// This mirrors what a MIP solver does on the big-M encoding of Figure 5
// after presolve: the integer (boolean) ordering variables are the entire
// combinatorial core; everything else is linear. Like the production ILP
// baseline, the search has no domain-specific knowledge of rectangles or
// skylines, it just explores the boolean space with generic heuristics —
// which is exactly why it is slow on hard inputs and exhibits the large
// variance reported in the paper.
//
// The same search doubles as the paper's pure "CP-SAT encoding" baseline
// (Figure 13) via BranchFirstUnresolved, and as the imitation-learning
// oracle (§6.3) via SolveWithFixed.
package ilp

import (
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/cp"
)

// Status is the outcome of a solve.
type Status int

const (
	// Solved means a valid packing was found.
	Solved Status = iota
	// Infeasible means the search space was exhausted without a solution.
	Infeasible
	// Budget means the step budget or deadline was exceeded first.
	Budget
)

func (s Status) String() string {
	switch s {
	case Solved:
		return "solved"
	case Infeasible:
		return "infeasible"
	default:
		return "budget-exceeded"
	}
}

// BranchRule selects which unresolved ordering pair to branch on next.
type BranchRule int

const (
	// BranchMostConstraining picks the unresolved pair with the largest
	// combined size — the generic "most constraining first" rule MIP
	// solvers approximate with pseudo-costs. This is the ILP baseline.
	BranchMostConstraining BranchRule = iota
	// BranchFirstUnresolved picks the lowest-index unresolved pair — a
	// plain CP labelling order. This is the CP-SAT-encoding baseline of
	// Figure 13.
	BranchFirstUnresolved
)

// Options configures a solve.
type Options struct {
	// MaxSteps caps the number of branch nodes explored (0 = unlimited).
	MaxSteps int64
	// Deadline aborts the solve when the wall clock passes it (zero =
	// none). Checked every few hundred nodes to stay cheap.
	Deadline time.Time
	// Timeout, when positive, is resolved against the wall clock when the
	// solve *starts* — not when the Options value was built — mirroring the
	// public WithTimeout contract, so an Options value constructed ahead of
	// time (or reused across solves, as benchmarks do) grants the full
	// budget every time instead of one that silently shrank since
	// construction. It combines with Deadline by earliest-wins. Inside
	// MinimizeMemory each feasibility probe resolves its own Timeout;
	// callers that want one deadline across all probes set Deadline.
	Timeout time.Duration
	// Rule selects the branching heuristic.
	Rule BranchRule
}

// Result reports the outcome of a solve.
type Result struct {
	Status Status
	// Solution is non-nil iff Status == Solved.
	Solution *buffers.Solution
	// Steps is the number of branch nodes explored.
	Steps int64
	// Conflicts is the number of propagation failures encountered.
	Conflicts int64
}

type searcher struct {
	m        *cp.Model
	opts     Options
	steps    int64
	conflict int64
	pairSize []int64 // combined size per pair, for BranchMostConstraining
	// stop latches the Budget verdict once a poll fires, so the unwinding
	// recursion sees one stable status.
	stop Status
}

// Solve runs the exact search on problem p. ov may be nil (computed then).
func Solve(p *buffers.Problem, ov *buffers.Overlaps, opts Options) Result {
	return SolveWithFixed(p, ov, nil, opts)
}

// SolveWithFixed runs the exact search with some buffers pre-fixed at the
// given positions: fixed[i] < 0 leaves buffer i free. This is the oracle
// query of §6.3 — "encode our problem as ILP and fix all pos variables that
// correspond to blocks that have already been placed".
func SolveWithFixed(p *buffers.Problem, ov *buffers.Overlaps, fixed []int64, opts Options) Result {
	if opts.Timeout > 0 {
		d := time.Now().Add(opts.Timeout)
		if opts.Deadline.IsZero() || d.Before(opts.Deadline) {
			opts.Deadline = d
		}
	}
	m := cp.NewModel(p, ov)
	if m.RootConflict() != nil {
		// Propagation alone proves p infeasible; with no pair left
		// undecided the search would branch on nothing and read the
		// wiped-out bounds as a packing.
		return Result{Status: Infeasible, Conflicts: 1}
	}
	s := &searcher{m: m, opts: opts}
	s.pairSize = make([]int64, m.NumPairs())
	for k := range s.pairSize {
		pr, _ := m.PairAt(k)
		s.pairSize[k] = p.Buffers[pr.A].Size + p.Buffers[pr.B].Size
	}
	m.Push()
	for i, pos := range fixed {
		if pos < 0 {
			continue
		}
		if c := m.Place(i, pos); c != nil {
			s.conflict++
			return Result{Status: Infeasible, Steps: s.steps, Conflicts: s.conflict}
		}
	}
	status := s.dfs()
	res := Result{Status: status, Steps: s.steps, Conflicts: s.conflict}
	if status == Solved {
		res.Solution = s.extract()
	}
	return res
}

// extract reads the solution at the current (all-pairs-resolved) node: the
// propagated lower bound of every buffer is a valid assignment because it
// satisfies every decided precedence constraint by construction.
func (s *searcher) extract() *buffers.Solution {
	n := len(s.m.Problem().Buffers)
	sol := buffers.NewSolution(n)
	for i := 0; i < n; i++ {
		sol.Offsets[i] = s.m.MinPos(i)
	}
	return sol
}

func (s *searcher) outOfBudget() bool {
	if s.stop != Solved {
		return true
	}
	if s.opts.MaxSteps > 0 && s.steps >= s.opts.MaxSteps {
		s.stop = Budget
		return true
	}
	// Poll the deadline on a stride, anchored at the first node so short
	// solves still observe it at least once.
	if s.steps%256 == 1 {
		if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) {
			s.stop = Budget
			return true
		}
	}
	return false
}

// pickPair returns the index of the unresolved pair to branch on, or -1 if
// every pair is resolved.
func (s *searcher) pickPair() int {
	best := -1
	var bestSize int64 = -1
	for k := 0; k < s.m.NumPairs(); k++ {
		_, order := s.m.PairAt(k)
		if order != cp.Unknown {
			continue
		}
		if s.opts.Rule == BranchFirstUnresolved {
			return k
		}
		if s.pairSize[k] > bestSize {
			bestSize = s.pairSize[k]
			best = k
		}
	}
	return best
}

func (s *searcher) dfs() Status {
	s.steps++
	if s.outOfBudget() {
		return s.stop
	}
	k := s.pickPair()
	if k < 0 {
		return Solved
	}
	// Value ordering: the branch whose relaxation looks looser first —
	// put the buffer with the smaller lower bound below. This mimics the
	// LP-rounding value selection of a MIP solver; it knows bounds, not
	// geometry.
	pr, _ := s.m.PairAt(k)
	first, second := cp.AFirst, cp.BFirst
	if s.m.MinPos(int(pr.B)) < s.m.MinPos(int(pr.A)) {
		first, second = cp.BFirst, cp.AFirst
	}
	for _, order := range [2]cp.Order{first, second} {
		s.m.Push()
		if c := s.m.FixOrder(k, order); c != nil {
			s.conflict++
			s.m.Pop()
			continue
		}
		switch st := s.dfs(); st {
		case Solved:
			return Solved
		case Budget:
			s.m.Pop()
			return st
		default:
			s.m.Pop()
		}
	}
	return Infeasible
}

// MinimizeMemory binary-searches the smallest memory limit for which the
// problem is solvable, between the contention peak (an unconditional lower
// bound) and p.Memory. It returns the smallest feasible limit found and the
// corresponding solution. If even p.Memory is infeasible (or the budget ran
// out before proving anything), ok is false.
//
// Table 2 of the paper uses this as the "theoretical minimum achieved by
// the ILP solver" that heuristic memory requirements are normalised to.
func MinimizeMemory(p *buffers.Problem, ov *buffers.Overlaps, opts Options) (limit int64, sol *buffers.Solution, ok bool) {
	if ov == nil {
		ov = buffers.ComputeOverlaps(p)
	}
	lo := buffers.Contention(p).Peak()
	hi := p.Memory
	if lo > hi {
		return 0, nil, false
	}
	probe := func(mem int64) *buffers.Solution {
		q := p.Clone()
		q.Memory = mem
		res := Solve(q, ov, opts)
		if res.Status == Solved {
			return res.Solution
		}
		return nil
	}
	best := probe(hi)
	if best == nil {
		return 0, nil, false
	}
	bestLimit := hi
	for lo < bestLimit {
		mid := lo + (bestLimit-lo)/2
		if s := probe(mid); s != nil {
			best, bestLimit = s, mid
		} else {
			lo = mid + 1
		}
	}
	return bestLimit, best, true
}

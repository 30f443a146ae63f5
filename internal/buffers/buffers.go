// Package buffers defines the core data model of the on-chip memory
// allocation problem: buffers with fixed logical live ranges and sizes that
// must be packed into a shared scratchpad memory without overlapping.
//
// The types in this package are shared by every allocator in the repository
// (the greedy heuristics, the exact ordering solver, and TelaMalloc itself)
// as well as by the workload generators and the experiment harness.
package buffers

import (
	"errors"
	"fmt"
)

// Buffer describes one tensor buffer that must be placed in on-chip memory.
//
// Start and End are logical (compile-time) timestamps: the buffer is live for
// every time slot t with Start <= t < End. Size is in bytes (or any other
// discrete allocation unit). Align, when greater than one, constrains the
// chosen address to be a multiple of Align; zero and one both mean
// "unconstrained".
type Buffer struct {
	// ID is the buffer's index within its Problem. Problems normalise IDs to
	// 0..n-1 so allocators can use them as slice indices.
	ID int
	// Start is the first logical time slot at which the buffer is live.
	Start int64
	// End is the first logical time slot at which the buffer is no longer
	// live (exclusive).
	End int64
	// Size is the number of bytes the buffer occupies.
	Size int64
	// Align constrains the buffer's address to a multiple of this value.
	// Values <= 1 mean the address is unconstrained.
	Align int64
}

// Lifetime returns the number of logical time slots for which the buffer is
// live.
func (b Buffer) Lifetime() int64 { return b.End - b.Start }

// Area returns size × lifetime, the quantity used by the "largest area"
// selection heuristic. It is computed in float64 so that extreme (but
// valid) sizes and lifetimes cannot overflow.
func (b Buffer) Area() float64 { return float64(b.Size) * float64(b.Lifetime()) }

// OverlapsInTime reports whether the live ranges of b and o share at least
// one time slot.
func (b Buffer) OverlapsInTime(o Buffer) bool {
	return b.Start < o.End && o.Start < b.End
}

// AlignUp rounds addr up to the buffer's alignment. Buffers with Align <= 1
// return addr unchanged.
func (b Buffer) AlignUp(addr int64) int64 {
	if b.Align <= 1 {
		return addr
	}
	rem := addr % b.Align
	if rem == 0 {
		return addr
	}
	return addr + (b.Align - rem)
}

func (b Buffer) String() string {
	return fmt.Sprintf("buf#%d[t=%d..%d size=%d align=%d]", b.ID, b.Start, b.End, b.Size, b.Align)
}

// Problem is one instance of the memory allocation problem: a set of buffers
// and a memory limit. The zero value is an empty, trivially solvable problem.
type Problem struct {
	// Buffers holds the buffers to allocate. After Normalize, Buffers[i].ID == i.
	Buffers []Buffer
	// Memory is the size of the scratchpad in bytes; every placement must
	// satisfy pos + size <= Memory.
	Memory int64
	// Name optionally identifies the workload the problem was derived from.
	Name string
}

// Errors returned by Problem.Validate.
var (
	ErrNegativeSize  = errors.New("buffers: buffer has non-positive size")
	ErrEmptyLifetime = errors.New("buffers: buffer has empty or inverted live range")
	ErrBadAlignment  = errors.New("buffers: buffer has negative alignment")
	ErrBadMemory     = errors.New("buffers: memory limit is not positive")
	ErrTooLarge      = errors.New("buffers: buffer is larger than the memory limit")
	ErrOutOfRange    = errors.New("buffers: value exceeds the supported magnitude")
)

// Magnitude caps enforced by Validate. They are far beyond any real
// accelerator scratchpad or compile-time schedule, and they guarantee that
// the arithmetic throughout the allocator (positions, contention sums,
// propagation bounds) stays safely inside int64.
const (
	// MaxMemory bounds the memory limit and therefore every size/address.
	MaxMemory = int64(1) << 44 // 16 TiB
	// MaxTime bounds |Start| and |End|.
	MaxTime = int64(1) << 32
)

// Validate checks structural sanity of the problem (positive sizes, ordered
// live ranges, buffers that individually fit in memory). It does not attempt
// to decide satisfiability.
func (p *Problem) Validate() error {
	if p.Memory <= 0 {
		return fmt.Errorf("%w: %d", ErrBadMemory, p.Memory)
	}
	if p.Memory > MaxMemory {
		return fmt.Errorf("%w: memory %d > %d", ErrOutOfRange, p.Memory, MaxMemory)
	}
	for _, b := range p.Buffers {
		switch {
		case b.Size <= 0:
			return fmt.Errorf("%w: %v", ErrNegativeSize, b)
		case b.Start >= b.End:
			return fmt.Errorf("%w: %v", ErrEmptyLifetime, b)
		case b.Align < 0:
			return fmt.Errorf("%w: %v", ErrBadAlignment, b)
		case b.Size > p.Memory:
			return fmt.Errorf("%w: %v (memory=%d)", ErrTooLarge, b, p.Memory)
		case b.Start < -MaxTime || b.End > MaxTime:
			return fmt.Errorf("%w: %v", ErrOutOfRange, b)
		case b.Align > p.Memory:
			return fmt.Errorf("%w (alignment): %v", ErrOutOfRange, b)
		case b.Align > 1 && b.AlignUp(0)+b.Size > p.Memory && b.AlignUp(p.Memory-b.Size) != p.Memory-b.Size && alignDown(p.Memory-b.Size, b.Align) < 0:
			return fmt.Errorf("%w (after alignment): %v", ErrTooLarge, b)
		}
	}
	return nil
}

func alignDown(addr, align int64) int64 {
	if align <= 1 {
		return addr
	}
	return addr - addr%align
}

// Normalize rewrites buffer IDs to their slice index. Allocators rely on this
// invariant; generators call it before returning a problem.
func (p *Problem) Normalize() {
	for i := range p.Buffers {
		p.Buffers[i].ID = i
	}
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{Memory: p.Memory, Name: p.Name}
	q.Buffers = append([]Buffer(nil), p.Buffers...)
	return q
}

// Subset returns the buffers with the given indices, in that order, as a
// normalized problem with p's memory and name. ids is also the map from the
// subset's buffer IDs back to p's.
func (p *Problem) Subset(ids []int) *Problem {
	q := &Problem{Memory: p.Memory, Name: p.Name, Buffers: make([]Buffer, len(ids))}
	for k, id := range ids {
		q.Buffers[k] = p.Buffers[id]
	}
	q.Normalize()
	return q
}

// TimeHorizon returns the exclusive maximum End across all buffers (and the
// minimum Start), i.e. the logical time window covered by the problem.
func (p *Problem) TimeHorizon() (minStart, maxEnd int64) {
	if len(p.Buffers) == 0 {
		return 0, 0
	}
	minStart, maxEnd = p.Buffers[0].Start, p.Buffers[0].End
	for _, b := range p.Buffers[1:] {
		if b.Start < minStart {
			minStart = b.Start
		}
		if b.End > maxEnd {
			maxEnd = b.End
		}
	}
	return minStart, maxEnd
}

// TotalBytes returns the sum of all buffer sizes.
func (p *Problem) TotalBytes() int64 {
	var total int64
	for _, b := range p.Buffers {
		total += b.Size
	}
	return total
}

// Solution maps each buffer (by ID) to its chosen start address.
type Solution struct {
	// Offsets[i] is the address assigned to buffer i. len(Offsets) equals the
	// number of buffers in the problem the solution was produced for.
	Offsets []int64
}

// NewSolution returns a solution with n unassigned (-1) offsets.
func NewSolution(n int) *Solution {
	s := &Solution{Offsets: make([]int64, n)}
	for i := range s.Offsets {
		s.Offsets[i] = -1
	}
	return s
}

// PeakUsage returns the highest address in use at any time, i.e. the minimum
// memory limit under which this solution would still be valid.
func (s *Solution) PeakUsage(p *Problem) int64 {
	var peak int64
	for i, b := range p.Buffers {
		if off := s.Offsets[i]; off >= 0 && off+b.Size > peak {
			peak = off + b.Size
		}
	}
	return peak
}

// Errors returned by Solution.Validate.
var (
	ErrUnassigned   = errors.New("buffers: buffer has no assigned offset")
	ErrOutOfBounds  = errors.New("buffers: buffer exceeds the memory limit")
	ErrMisaligned   = errors.New("buffers: buffer offset violates its alignment")
	ErrOverlap      = errors.New("buffers: two live buffers overlap in memory")
	ErrWrongBuffers = errors.New("buffers: solution size does not match problem")
)

// Validate checks that the solution is a correct packing for p: every buffer
// assigned, in bounds, aligned, and spatially disjoint from every temporally
// overlapping buffer. It runs one Sweep and is O(n log n + k) where k is
// the number of temporally overlapping pairs.
func (s *Solution) Validate(p *Problem) error {
	if len(s.Offsets) != len(p.Buffers) {
		return fmt.Errorf("%w: got %d offsets for %d buffers", ErrWrongBuffers, len(s.Offsets), len(p.Buffers))
	}
	for i, b := range p.Buffers {
		off := s.Offsets[i]
		switch {
		case off < 0:
			return fmt.Errorf("%w: %v", ErrUnassigned, b)
		case off+b.Size > p.Memory:
			return fmt.Errorf("%w: %v at %d (memory=%d)", ErrOutOfBounds, b, off, p.Memory)
		case b.Align > 1 && off%b.Align != 0:
			return fmt.Errorf("%w: %v at %d", ErrMisaligned, b, off)
		}
	}
	// Check each buffer against the buffers live at its start.
	var err error
	Sweep(p, func(_ int64, id int, start bool, live []int) {
		if !start || err != nil {
			return
		}
		nb, noff := p.Buffers[id], s.Offsets[id]
		for _, j := range live {
			ob, ooff := p.Buffers[j], s.Offsets[j]
			if noff < ooff+ob.Size && ooff < noff+nb.Size {
				err = fmt.Errorf("%w: %v at %d and %v at %d", ErrOverlap, nb, noff, ob, ooff)
				return
			}
		}
	})
	return err
}

// Assigned reports how many buffers have a non-negative offset.
func (s *Solution) Assigned() int {
	n := 0
	for _, off := range s.Offsets {
		if off >= 0 {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the solution.
func (s *Solution) Clone() *Solution {
	return &Solution{Offsets: append([]int64(nil), s.Offsets...)}
}

// Package intervals provides small utilities over sets of half-open integer
// intervals [Lo, Hi). They back the spatial reasoning in the repository:
// finding the lowest aligned gap among already-placed buffers
// (solver-guided placement) and best-fit gap selection (the BFC-style
// baseline allocator).
package intervals

import (
	"cmp"
	"slices"
)

// Interval is the half-open range [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// Len returns Hi - Lo.
func (iv Interval) Len() int64 { return iv.Hi - iv.Lo }

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Overlaps reports whether iv and o share at least one point.
func (iv Interval) Overlaps(o Interval) bool { return iv.Lo < o.Hi && o.Lo < iv.Hi }

// Contains reports whether x lies within [Lo, Hi).
func (iv Interval) Contains(x int64) bool { return iv.Lo <= x && x < iv.Hi }

// alignUp rounds x up to a multiple of align (align <= 1 is a no-op).
func alignUp(x, align int64) int64 {
	if align <= 1 {
		return x
	}
	if rem := x % align; rem != 0 {
		return x + align - rem
	}
	return x
}

// LowestFit returns the lowest address pos >= minPos with pos % align == 0
// such that [pos, pos+size) does not intersect any interval in occupied and
// pos+size <= limit. occupied must be sorted by Lo and non-overlapping (as
// produced by SortAndMerge). The boolean result is false if no such position
// exists.
func LowestFit(occupied []Interval, size, align, minPos, limit int64) (int64, bool) {
	pos := alignUp(minPos, align)
	for _, iv := range occupied {
		if iv.Hi <= pos {
			continue
		}
		if pos+size <= iv.Lo {
			break
		}
		pos = alignUp(iv.Hi, align)
	}
	if pos+size <= limit {
		return pos, true
	}
	return 0, false
}

// BestFit returns the address of the tightest gap that can hold size bytes
// with the given alignment within [0, limit). Among equally tight gaps the
// lowest one wins, mirroring classic best-fit allocators. The boolean result
// is false if nothing fits.
func BestFit(occupied []Interval, size, align, limit int64) (int64, bool) {
	bestPos := int64(-1)
	bestSlack := int64(-1)
	gapStart := int64(0)
	consider := func(lo, hi int64) {
		pos := alignUp(lo, align)
		if pos+size > hi {
			return
		}
		slack := (hi - lo) - size
		if bestSlack < 0 || slack < bestSlack {
			bestSlack = slack
			bestPos = pos
		}
	}
	for _, iv := range occupied {
		if iv.Lo > gapStart {
			consider(gapStart, min64(iv.Lo, limit))
		}
		if iv.Hi > gapStart {
			gapStart = iv.Hi
		}
		if gapStart >= limit {
			break
		}
	}
	if gapStart < limit {
		consider(gapStart, limit)
	}
	if bestPos < 0 {
		return 0, false
	}
	return bestPos, true
}

// SortAndMerge sorts ivs by Lo and merges overlapping or touching intervals
// in place, returning the shortened slice. The result is the union of the
// inputs, so how the sort orders equal Los does not show in it. It
// allocates nothing.
func SortAndMerge(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Package cache is the cross-request reuse layer of the allocation service:
// a canonical problem fingerprint plus a bounded LRU of validated solutions.
//
// The paper's production deployment observes that accelerator compile
// traffic is dominated by *repeated* allocation problems — the same model
// recompiled with the same buffer schedule — so amortising search cost
// across requests is the biggest lever after parallelism (§2, §7.2). The
// fingerprint makes that reuse safe: it hashes the *shape* of a problem
// (live ranges, sizes, alignments, capacity) while ignoring everything a
// recompilation is allowed to change without changing the answer — buffer
// IDs, buffer order, the diagnostic name, and a uniform shift of the time
// axis. Two problems with equal fingerprints are solution-compatible: a
// packing for one, transported through the canonical permutation, is a
// packing for the other (the FuzzFingerprint target asserts exactly this).
//
// The cache itself is deliberately dumb: a mutex-guarded LRU of canonical
// solutions with hit/miss/eviction counters. All trust lives with the
// caller, which must re-validate every replayed solution against its own
// problem before serving it — a stale or corrupted entry then costs one
// validation pass, never a wrong answer.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"

	"telamalloc/internal/buffers"
)

// Fingerprint identifies an allocation problem up to the transformations
// that preserve solutions.
type Fingerprint struct {
	// Key is the full fingerprint: canonical buffer shapes plus the memory
	// capacity. Problems with equal Keys are interchangeable.
	Key string
	// ShapeKey excludes the capacity. Problems with equal ShapeKeys differ
	// at most in their memory limit — the "near miss" a cached solution can
	// still answer when it fits (a packing for one capacity is a packing
	// for any larger one).
	ShapeKey string
}

// canonBuffer is one buffer in canonical form: times shifted so the
// problem's earliest start is zero, alignment normalised so 0 and 1 (both
// "unconstrained") hash identically.
type canonBuffer struct {
	start, end, size, align int64
	id                      int // original index, for the permutation
}

// Canonicalize computes p's fingerprint and the canonical permutation:
// perm[k] is the index in p.Buffers of the k-th buffer in canonical order.
// A solution stored in canonical order is transported onto p with
// offsets[perm[k]] = canonical[k] (see Replay). Buffers with identical
// shapes are interchangeable, so their relative order is immaterial for
// solution compatibility; ties break by original index for determinism.
func Canonicalize(p *buffers.Problem) (Fingerprint, []int) {
	n := len(p.Buffers)
	cs := make([]canonBuffer, n)
	var minStart int64
	for i, b := range p.Buffers {
		if i == 0 || b.Start < minStart {
			minStart = b.Start
		}
	}
	for i, b := range p.Buffers {
		align := b.Align
		if align < 1 {
			align = 1
		}
		cs[i] = canonBuffer{start: b.Start - minStart, end: b.End - minStart, size: b.Size, align: align, id: i}
	}
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end < b.end
		}
		if a.size != b.size {
			return a.size < b.size
		}
		if a.align != b.align {
			return a.align < b.align
		}
		return a.id < b.id
	})

	h := sha256.New()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	put(int64(n))
	perm := make([]int, n)
	for k, c := range cs {
		perm[k] = c.id
		put(c.start)
		put(c.end)
		put(c.size)
		put(c.align)
	}
	shape := h.Sum(nil)
	put(p.Memory)
	full := h.Sum(nil)
	return Fingerprint{
		Key:      hex.EncodeToString(full),
		ShapeKey: hex.EncodeToString(shape),
	}, perm
}

// Replay transports a canonical-order solution onto a problem with the
// given canonical permutation: out[perm[k]] = canonical[k]. It returns nil
// when the lengths disagree (the packing came from a different shape).
func Replay(canonical []int64, perm []int) []int64 {
	if len(canonical) != len(perm) {
		return nil
	}
	out := make([]int64, len(perm))
	for k, id := range perm {
		out[id] = canonical[k]
	}
	return out
}

// ToCanonical is Replay's inverse: it records a problem-order solution in
// canonical order, canonical[k] = offsets[perm[k]].
func ToCanonical(offsets []int64, perm []int) []int64 {
	if len(offsets) != len(perm) {
		return nil
	}
	out := make([]int64, len(perm))
	for k, id := range perm {
		out[k] = offsets[id]
	}
	return out
}

// Entry is one cached outcome: the winning stage and the packing in
// canonical buffer order. Only full (non-degraded) packings are cached —
// they are capacity-monotone and cheap to re-validate.
type Entry struct {
	// Winner is the pipeline stage that produced the packing, echoed on
	// cache hits so warm responses are byte-identical to the cold one.
	Winner string
	// Offsets is the packing in canonical buffer order.
	Offsets []int64
	// LowerBound is the problem's contention peak, which every problem of
	// the same shape shares: hits and near hits echo it instead of
	// sweeping their own problem again.
	LowerBound int64
}

// Counters is a point-in-time snapshot of cache telemetry.
type Counters struct {
	// Hits and Misses count Get outcomes; Hits + Misses == lookups.
	Hits, Misses int64
	// NearHits counts GetShape successes: a different capacity, same shape.
	NearHits int64
	// Insertions and Evictions count Put outcomes; Insertions - Evictions
	// == Len for a cache that has never been cleared.
	Insertions, Evictions int64
	// Len is the current entry count, bounded by the configured capacity.
	Len int
}

// Cache is a bounded, thread-safe LRU of validated solutions keyed by full
// fingerprint, with a shape index for near-miss lookups.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	shape    map[string]string // ShapeKey -> full Key of the newest entry

	hits, misses, nearHits, insertions, evictions int64
}

// lruItem is the list payload.
type lruItem struct {
	key   string
	shape string
	entry Entry
}

// New builds a cache bounded to capacity entries. Capacities below 1 are
// clamped to 1 — callers that want no cache simply don't build one.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
		shape:    make(map[string]string, capacity),
	}
}

// Get returns the entry stored under the full fingerprint key, marking it
// most recently used. The returned offsets are a copy; callers may keep it.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return copyEntry(el.Value.(*lruItem).entry), true
}

// GetShape returns the newest entry whose problem had the given shape but a
// *different* full key — the near-miss case where only the capacity
// changed. It does not touch recency (the packing may not even validate) and
// does not count as a hit or miss.
func (c *Cache) GetShape(shapeKey, excludeKey string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	full, ok := c.shape[shapeKey]
	if !ok || full == excludeKey {
		return Entry{}, false
	}
	el, ok := c.items[full]
	if !ok {
		return Entry{}, false
	}
	c.nearHits++
	return copyEntry(el.Value.(*lruItem).entry), true
}

// Put stores e under fp, evicting the least recently used entry when the
// cache is full. The entry's offsets are copied in.
func (c *Cache) Put(fp Fingerprint, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp.Key]; ok {
		// Refresh in place: same fingerprint, possibly a new packing.
		el.Value.(*lruItem).entry = copyEntry(e)
		c.ll.MoveToFront(el)
		c.shape[fp.ShapeKey] = fp.Key
		return
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		it := oldest.Value.(*lruItem)
		c.ll.Remove(oldest)
		delete(c.items, it.key)
		if c.shape[it.shape] == it.key {
			delete(c.shape, it.shape)
		}
		c.evictions++
	}
	c.items[fp.Key] = c.ll.PushFront(&lruItem{key: fp.Key, shape: fp.ShapeKey, entry: copyEntry(e)})
	c.shape[fp.ShapeKey] = fp.Key
	c.insertions++
}

// Drop removes the entry stored under key, if any. The serving layer drops
// entries whose replay failed validation — they can only waste lookups.
func (c *Cache) Drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	it := el.Value.(*lruItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	if c.shape[it.shape] == it.key {
		delete(c.shape, it.shape)
	}
}

// Counters returns the current telemetry snapshot.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{
		Hits:       c.hits,
		Misses:     c.misses,
		NearHits:   c.nearHits,
		Insertions: c.insertions,
		Evictions:  c.evictions,
		Len:        c.ll.Len(),
	}
}

func copyEntry(e Entry) Entry {
	return Entry{Winner: e.Winner, Offsets: append([]int64(nil), e.Offsets...), LowerBound: e.LowerBound}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"telamalloc/internal/obs"
)

// rootSpan is the span name that covers one whole request, in the daemon's
// span vocabulary and in the spans this harness records around library
// calls.
const rootSpan = "request"

// nestSlackUS is how far, in microseconds, a child may poke out of its
// parent and still nest under it: spans are stamped in whole microseconds
// from separate clock reads (the daemon's queue span starts at the Submit
// entry time, read just before the request span opens).
const nestSlackUS = 5

// selfTimes nests the spans of one trace by containment — each span's parent
// is the shortest other span containing it — and returns every span's self
// time: its duration minus the part of its interval its children cover.
// Overlapping children are counted once. A span contained in no other
// becomes a child of the trace's request span when there is one, so a span
// that starts a microsecond before its request still folds into it.
func selfTimes(spans []obs.SpanRecord) (self []int64, parent []int) {
	n := len(spans)
	end := func(i int) int64 { return spans[i].StartUS + spans[i].DurUS }
	// outranks orders candidate parents strictly (longer first, then
	// earlier), so equal intervals never nest in each other.
	outranks := func(j, i int) bool {
		return spans[j].DurUS > spans[i].DurUS || (spans[j].DurUS == spans[i].DurUS && j < i)
	}
	root := -1
	for i, s := range spans {
		if s.Span == rootSpan && (root < 0 || outranks(i, root)) {
			root = i
		}
	}
	parent = make([]int, n)
	for i := range spans {
		parent[i] = -1
		for j := range spans {
			if j == i || !outranks(j, i) ||
				spans[i].StartUS < spans[j].StartUS-nestSlackUS || end(i) > end(j)+nestSlackUS {
				continue
			}
			if parent[i] < 0 || outranks(parent[i], j) {
				parent[i] = j
			}
		}
		if parent[i] < 0 && i != root {
			parent[i] = root
		}
	}
	self = make([]int64, n)
	for i := range spans {
		var ivs [][2]int64
		for j := range spans {
			if parent[j] != i {
				continue
			}
			lo, hi := max(spans[j].StartUS, spans[i].StartUS), min(end(j), end(i))
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = spans[i].DurUS - unionLength(ivs)
	}
	return self, parent
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// fold is the per-layer view of a span log: self times grouped by span name
// and how much of the request time they account for.
type fold struct {
	// self lists, per span name, the self time in microseconds of every span
	// with that name that sits under a request span.
	self map[string][]float64
	// requestUS and selfUS sum the request spans' durations and the self
	// times of every span under them; selfUS/requestUS is the coverage.
	requestUS, selfUS int64
}

// foldSpans groups spans by trace and folds every trace that has a request
// span.
func foldSpans(spans []obs.SpanRecord) fold {
	byTrace := make(map[string][]obs.SpanRecord)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	f := fold{self: make(map[string][]float64)}
	for _, group := range byTrace {
		self, parent := selfTimes(group)
		for i, s := range group {
			if s.Span == rootSpan && parent[i] < 0 {
				f.requestUS += s.DurUS
			}
		}
		for i, s := range group {
			if underRequest(group, parent, i) {
				f.self[s.Span] = append(f.self[s.Span], float64(self[i]))
				f.selfUS += self[i]
			}
		}
	}
	return f
}

func underRequest(spans []obs.SpanRecord, parent []int, i int) bool {
	for ; i >= 0; i = parent[i] {
		if spans[i].Span == rootSpan && parent[i] < 0 {
			return true
		}
	}
	return false
}

func (f fold) coverage() float64 { return ratio(float64(f.selfUS), float64(f.requestUS)) }

// readSpans parses a JSONL span log.
func readSpans(path string) ([]obs.SpanRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []obs.SpanRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// writeSpans writes spans as JSONL, the daemon's -trace-file format.
func writeSpans(path string, spans []obs.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

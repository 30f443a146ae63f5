package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/check"
	"telamalloc/internal/wire"
	"telamalloc/internal/workload"
)

// Workload names, in the order a full run executes them.
const (
	wCompileSuite = "compile-suite"
	wCompileLarge = "compile-large"
	wSpillTight   = "spill-tight"
	wServeRepeat  = "serve-repeat"
)

var workloadNames = []string{wCompileSuite, wCompileLarge, wSpillTight, wServeRepeat}

// tailPercentile fixes each workload's tail percentile: the highest one with
// at least ten samples beyond it at the default run length (see tailRule).
var tailPercentile = map[string]float64{
	wCompileSuite: 99,
	wCompileLarge: 90,
	wSpillTight:   90,
	wServeRepeat:  99,
}

// pinnedCorpus holds the sha256 of each workload's corpus (the full-scale
// inputs, before the seed orders them). Every run recomputes it and fails on
// a mismatch, so a change to internal/workload cannot silently change what
// the benchmark measures; a deliberate change re-pins here.
var pinnedCorpus = map[string]string{
	wCompileSuite: "4e91371eae641cb08215fd3602045d25e6b2e57a0778427d86b703610998d595",
	wCompileLarge: "d5d7ffd3a713c73cb6235424e1c5ae123347c32f6b9e29b301aef1dd21d2683e",
	wSpillTight:   "68fcaf1ef5922b9856880588868f78436a0f2779a8a02590b94460961dfcc82c",
	wServeRepeat:  "6344849908a9d023fa4d6fdbfb9c2953a4add5105d0824ddf1874fae27db1c96",
}

// Every input is generated from internal/workload with fixed model seeds, so
// a workload's corpus is identical on every run and every commit. The -seed
// flag orders it: per pass for the library workloads, and as the request
// stream (with its priorities) for serve-repeat. Runs with different seeds
// therefore submit the same work in a different order, which keeps
// deterministic metrics exactly comparable across seeds.

// libJob is one library call: a problem and whether it runs through the
// search stage alone.
type libJob struct {
	problem    telamalloc.Problem
	searchOnly bool
}

// libCorpus is a library workload's inputs and the step pot each call gets.
type libCorpus struct {
	jobs     []libJob
	maxSteps int64
}

// proxyModels is the paper's Pixel-6 proxy set plus the two large proxies
// every library workload and the service stream draw from.
func proxyModels() []workload.Model {
	ms := append([]workload.Model(nil), workload.Models...)
	for _, m := range workload.StressModels {
		if m.Name == "MobileNet-Large" || m.Name == "Transformer-24L" {
			ms = append(ms, m)
		}
	}
	return ms
}

// atRatio converts a generated problem to the public schema with memory at
// pct percent of its contention lower bound.
func atRatio(q *buffers.Problem, name string, pct int64) telamalloc.Problem {
	p := public(q, 0)
	p.Name = fmt.Sprintf("%s@%d%%", name, pct)
	p.Memory = check.LowerBound(p) * pct / 100
	return p
}

// public converts a generated problem to the public schema.
func public(q *buffers.Problem, memory int64) telamalloc.Problem {
	p := telamalloc.Problem{Name: q.Name, Memory: memory, Buffers: make([]telamalloc.Buffer, len(q.Buffers))}
	for i, b := range q.Buffers {
		p.Buffers[i] = telamalloc.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align}
	}
	return p
}

// libraryCorpus builds a library workload's inputs. smoke shrinks it to a
// few small problems for the harness tests.
func libraryCorpus(name string, smoke bool) (libCorpus, error) {
	models := proxyModels()
	var c libCorpus
	add := func(p telamalloc.Problem, searchOnly bool) {
		c.jobs = append(c.jobs, libJob{problem: p, searchOnly: searchOnly})
	}
	switch name {
	case wCompileSuite:
		// The paper's main scenario: a compiler packing one model at tight
		// memory. 14 proxies x 4 model seeds x 4 ratios = 224 problems.
		c.maxSteps = 200000
		seeds, ratios := []int64{1, 2, 3, 4}, []int64{100, 102, 105, 110}
		if smoke {
			models, seeds, ratios = models[:2], seeds[:1], ratios[1:2]
		}
		for _, m := range models {
			for _, s := range seeds {
				q := m.Generate(s)
				for _, r := range ratios {
					add(atRatio(q, fmt.Sprintf("%s/s%d", m.Name, s), r), false)
				}
			}
		}
	case wCompileLarge:
		// The thousands-of-buffers regime: DeepChain-2K and Transformer-24L
		// through the ladder, and Table 1's full-overlap-300 and
		// non-overlapping-10K through the search stage alone (greedy would
		// win them in one pass). Transformer-24L takes a third seed: with
		// four pairs of similar problems the median call would fall on the
		// edge between two pairs, where one slow call moves it.
		c.maxSteps = 200000
		if smoke {
			add(atRatio(workload.GenConvNet2D(1), "ConvNet2D/s1", 102), false)
			add(public(workload.FullOverlap(30, 1), workload.FullOverlap(30, 1).Memory), true)
			break
		}
		add(atRatio(workload.GenTransformer(3), "Transformer-24L/s3", 100), false)
		for _, s := range []int64{1, 2} {
			add(atRatio(workload.GenDeepChain(s), fmt.Sprintf("DeepChain-2K/s%d", s), 102), false)
			add(atRatio(workload.GenTransformer(s), fmt.Sprintf("Transformer-24L/s%d", s), 100), false)
			full := workload.FullOverlap(300, s)
			p := public(full, full.Memory)
			p.Name = fmt.Sprintf("full-overlap-300/s%d", s)
			add(p, true)
			non := workload.NonOverlapping(10000, s)
			p = public(non, non.Memory)
			p.Name = fmt.Sprintf("non-overlapping-10K/s%d", s)
			add(p, true)
		}
	case wSpillTight:
		// Memory below the lower bound is provably infeasible, so the ladder
		// jumps straight to spill; the alignment-hostile instances make the
		// search run out first and then spill.
		c.maxSteps = 20000
		hostile := []int64{1, 2, 3}
		if smoke {
			models, hostile = models[:2], nil
		}
		for i, m := range models {
			add(atRatio(m.Generate(1), m.Name+"/s1", 95-5*int64(i%2)), false)
		}
		for _, s := range hostile {
			q := workload.AlignmentHostile(40, s)
			p := public(q, q.Memory)
			p.Name = fmt.Sprintf("alignment-hostile-40/s%d", s)
			add(p, false)
		}
	default:
		return libCorpus{}, fmt.Errorf("unknown library workload %q", name)
	}
	return c, nil
}

// serveReq is one request of the service stream.
type serveReq struct {
	kind    string // "hot", "near" or "fresh"
	problem telamalloc.Problem
	buffers []wire.Buffer
}

// serveCorpus is serve-repeat's inputs: the hot set (sent once to warm the
// daemon's cache) and the fixed multiset of requests the seed shuffles into
// the stream.
type serveCorpus struct {
	hot      []serveReq
	requests []serveReq
	maxSteps int64
}

const (
	serveRate    = 200 // open-loop requests per second
	serveHotSize = 64
	serveZipfS   = 1.1
)

// buildServeCorpus builds the service stream's multiset: 70% Zipf(1.1)
// repeats of a 64-problem hot set at {105,110,120}% of the lower bound, 15%
// near-misses (a hot problem with memory raised by 1-10%, which takes the
// hint-replay path), and 15% fresh proxies at {102,105,110}%. The hot set is
// packable within the step pot: degraded answers are never cached, so a
// spilling hot problem would re-run spill on every repeat.
func buildServeCorpus(smoke bool) serveCorpus {
	models := proxyModels()
	hotSize, total := serveHotSize, 3000
	if smoke {
		hotSize, total = 4, 40
		models = models[:3]
	}
	c := serveCorpus{maxSteps: 20000}
	for _, s := range []int64{1, 2} {
		for _, r := range []int64{105, 110, 120} {
			for _, m := range models {
				if len(c.hot) < hotSize {
					c.hot = append(c.hot, newServeReq("hot", atRatio(m.Generate(s), fmt.Sprintf("%s/s%d", m.Name, s), r)))
				}
			}
		}
	}
	nearN := total * 15 / 100
	freshN := nearN
	for i, n := range zipfCounts(len(c.hot), total-nearN-freshN, serveZipfS) {
		for k := 0; k < n; k++ {
			c.requests = append(c.requests, c.hot[i])
		}
	}
	for i, n := range zipfCounts(len(c.hot), nearN, serveZipfS) {
		for k := 0; k < n; k++ {
			p := c.hot[i].problem
			raise := int64(1 + k%10)
			p.Memory = p.Memory * (100 + raise) / 100
			p.Name = fmt.Sprintf("%s+%d%%", p.Name, raise)
			c.requests = append(c.requests, newServeReq("near", p))
		}
	}
	ratios := []int64{102, 105, 110}
	for k := 0; k < freshN; k++ {
		m := models[k%len(models)]
		s := int64(1000 + k)
		r := ratios[(k/len(models))%len(ratios)]
		c.requests = append(c.requests, newServeReq("fresh", atRatio(m.Generate(s), fmt.Sprintf("%s/s%d", m.Name, s), r)))
	}
	return c
}

func newServeReq(kind string, p telamalloc.Problem) serveReq {
	bs := make([]wire.Buffer, len(p.Buffers))
	for i, b := range p.Buffers {
		bs[i] = wire.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align}
	}
	return serveReq{kind: kind, problem: p, buffers: bs}
}

// zipfCounts splits total draws over n ranks in proportion to 1/rank^s,
// rounding by largest remainder so the counts sum to total exactly.
func zipfCounts(n, total int, s float64) []int {
	weights := make([]float64, n)
	var sum float64
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), s)
		sum += weights[r]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total
	for r, w := range weights {
		exact := float64(total) * w / sum
		counts[r] = int(exact)
		rem[r] = exact - float64(counts[r])
		left -= counts[r]
	}
	for ; left > 0; left-- {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// priorityAt assigns the stream's admission classes: every fifth request is
// interactive, the rest batch.
func priorityAt(pos int) string {
	if pos%5 == 0 {
		return "interactive"
	}
	return "batch"
}

// digester hashes inputs field by field.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) int(v int64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(v))
	d.h.Write(w[:])
}

func (d digester) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digester) problem(p telamalloc.Problem) {
	d.str(p.Name)
	d.int(p.Memory)
	d.int(int64(len(p.Buffers)))
	for _, b := range p.Buffers {
		d.int(b.Start)
		d.int(b.End)
		d.int(b.Size)
		d.int(b.Align)
	}
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (c libCorpus) digest() string {
	d := newDigester()
	d.int(c.maxSteps)
	for _, j := range c.jobs {
		d.problem(j.problem)
		if j.searchOnly {
			d.int(1)
		} else {
			d.int(0)
		}
	}
	return d.sum()
}

func (c serveCorpus) digest() string {
	d := newDigester()
	d.int(c.maxSteps)
	for _, set := range [][]serveReq{c.hot, c.requests} {
		d.int(int64(len(set)))
		for _, r := range set {
			d.str(r.kind)
			d.problem(r.problem)
		}
	}
	return d.sum()
}

// streamDigest hashes the ordered stream a seed produces: the corpus digest
// plus the order and, for the service, each position's admission class.
func streamDigest(corpus string, order []int, priorities bool) string {
	d := newDigester()
	d.str(corpus)
	for pos, i := range order {
		d.int(int64(i))
		if priorities {
			d.str(priorityAt(pos))
		}
	}
	return d.sum()
}

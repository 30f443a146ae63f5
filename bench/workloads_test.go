package main

import (
	"math/rand"
	"testing"
)

// firstOrder is the order a seed gives the first pass (library) or the
// stream (service).
func firstOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func TestCorporaMatchPinnedDigests(t *testing.T) {
	for _, w := range []string{wCompileSuite, wCompileLarge, wSpillTight} {
		c, err := libraryCorpus(w, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.digest(); got != pinnedCorpus[w] {
			t.Errorf("%s corpus digest %s, pinned %s", w, got, pinnedCorpus[w])
		}
	}
	if got := buildServeCorpus(false).digest(); got != pinnedCorpus[wServeRepeat] {
		t.Errorf("%s corpus digest %s, pinned %s", wServeRepeat, got, pinnedCorpus[wServeRepeat])
	}
}

func TestStreamDigestIsStablePerSeedAndDiffersAcrossSeeds(t *testing.T) {
	c, err := libraryCorpus(wCompileSuite, false)
	if err != nil {
		t.Fatal(err)
	}
	corpus := c.digest()
	n := len(c.jobs)
	if a, b := streamDigest(corpus, firstOrder(7, n), false), streamDigest(corpus, firstOrder(7, n), false); a != b {
		t.Errorf("seed 7 gave two stream digests: %s, %s", a, b)
	}
	seen := make(map[string]int64)
	for seed := int64(1); seed <= 10; seed++ {
		d := streamDigest(corpus, firstOrder(seed, n), false)
		if prev, dup := seen[d]; dup {
			t.Errorf("seeds %d and %d gave the same stream %s", prev, seed, d)
		}
		seen[d] = seed
	}
	// The service stream also pins its admission classes.
	s := buildServeCorpus(true)
	order := firstOrder(1, len(s.requests))
	if streamDigest(s.digest(), order, true) == streamDigest(s.digest(), order, false) {
		t.Error("service stream digest ignores priorities")
	}
}

func TestServeCorpusMix(t *testing.T) {
	c := buildServeCorpus(false)
	counts := make(map[string]int)
	for _, r := range c.requests {
		counts[r.kind]++
	}
	if len(c.hot) != serveHotSize || counts["hot"] != 2100 || counts["near"] != 450 || counts["fresh"] != 450 {
		t.Errorf("hot set %d, stream mix %v; want 64 and 2100/450/450", len(c.hot), counts)
	}
	z := zipfCounts(64, 2100, serveZipfS)
	sum := 0
	for i, n := range z {
		sum += n
		if i > 0 && n > z[i-1] {
			t.Errorf("zipf count rises at rank %d: %d > %d", i+1, n, z[i-1])
		}
	}
	if sum != 2100 {
		t.Errorf("zipf counts sum to %d, want 2100", sum)
	}
}

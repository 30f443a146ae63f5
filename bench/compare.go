package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// compareSides splits compare mode's arguments into the base and head
// result files: either exactly two files, or any number on each side of a
// "--".
func compareSides(args []string) (base, head []string, ok bool) {
	if i := slices.Index(args, "--"); i >= 0 {
		base, head = args[:i], args[i+1:]
	} else if len(args) == 2 {
		base, head = args[:1], args[1:]
	}
	return base, head, len(base) > 0 && len(head) > 0
}

// readRecords reads the untraced result records in files of concatenated
// telabench outputs, grouped by workload in the order read.
func readRecords(paths []string) (map[string][]*result, error) {
	out := make(map[string][]*result)
	for _, p := range paths {
		if err := readRecordFile(p, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func readRecordFile(path string, out map[string][]*result) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if json.Unmarshal([]byte(line), &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict applies the comparison rule to one metric on one workload. head
// is better when it wins at least nine in ten of the pairs (run i of each
// side) and its median beats the base median by more than the base's
// quartile spread. It is worse when its median is worse than the base
// median by more than the bound. When neither holds it is the same, unless
// the base's own spread is wider than the bound: then the runs cannot tell,
// and the verdict is unresolved — or "no worse" when every head run beats
// every base run.
func verdict(base, head []float64, lowerIsBetter bool, bound float64) string {
	better := func(h, b float64) bool {
		if lowerIsBetter {
			return h < b
		}
		return h > b
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	q1, bm, q3 := quartiles(base)
	hm := median(head)
	gain := hm - bm
	if lowerIsBetter {
		gain = -gain
	}
	spread := q3 - q1
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && gain > spread:
		return "better"
	case allBetter:
		return "no worse"
	case spread > bound*math.Abs(bm):
		return "unresolved"
	case -gain > bound*math.Abs(bm):
		return "worse"
	default:
		return "same"
	}
}

// runCompare prints, per workload and end-to-end metric, each side's median
// and quartiles and the verdict.
func runCompare(benchmarkPath string, basePaths, headPaths []string, w io.Writer) error {
	bm, err := readBenchmark(benchmarkPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePaths)
	if err != nil {
		return err
	}
	head, err := readRecords(headPaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-18s %34s %34s %8s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "pairs", "verdict")
	for _, wl := range bm.Workloads {
		b, h := base[wl.Name], head[wl.Name]
		if len(b) == 0 || len(h) == 0 {
			fmt.Fprintf(w, "%-14s (no runs on one side: base %d, head %d)\n", wl.Name, len(b), len(h))
			continue
		}
		if len(b) < 10 || len(h) < 10 {
			fmt.Fprintf(w, "%-14s note: %d base and %d head runs; a verdict wants at least 10 alternating pairs\n", wl.Name, len(b), len(h))
		}
		for _, m := range bm.EndToEnd {
			bv, hv := values(b, m.Name), values(h, m.Name)
			bq1, bmed, bq3 := quartiles(bv)
			hq1, hmed, hq3 := quartiles(hv)
			fmt.Fprintf(w, "%-14s %-18s %34s %34s %+7.2f%% %6d  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", bmed, bq1, bq3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", hmed, hq1, hq3),
				100*ratio(hmed-bmed, math.Abs(bmed)), min(len(bv), len(hv)),
				verdict(bv, hv, m.Better == "lower", m.Bound))
		}
	}
	return nil
}

func values(rs []*result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

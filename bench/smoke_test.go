package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	binOnce              sync.Once
	binDir               string
	benchBin, daemonBin  string
	binErr               error
	benchmarkDefinitions = filepath.Join("..", "BENCHMARK.json")
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binaries builds telabench and telamallocd once for the tests that run
// them as subprocesses.
func binaries(t *testing.T) (bench, daemon string) {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "telabench-test"); binErr != nil {
			return
		}
		benchBin, daemonBin = filepath.Join(binDir, "telabench"), filepath.Join(binDir, "telamallocd")
		for _, args := range [][]string{
			{"build", "-o", benchBin, "."},
			{"build", "-o", daemonBin, "telamalloc/cmd/telamallocd"},
		} {
			if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
				binErr = fmt.Errorf("go %v: %v\n%s", args, err, out)
				return
			}
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return benchBin, daemonBin
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bm, err := readBenchmark(benchmarkDefinitions)
	if err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bm.Workloads {
		workloads = append(workloads, w.Name)
	}
	if fmt.Sprint(workloads) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", workloads, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bm.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", e2e, endToEndMetrics)
	}
	if fmt.Sprint(layers) != fmt.Sprint(perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", layers, perLayerMetrics)
	}
}

// TestSmokeRunReportsEveryBenchmarkMetric runs all four workloads at tiny
// scale, untraced and traced, and checks every metric BENCHMARK.json lists
// is printed with its unit, every answer passed the checker, and the last
// line is the summary object.
func TestSmokeRunReportsEveryBenchmarkMetric(t *testing.T) {
	bench, daemon := binaries(t)
	bm, err := readBenchmark(benchmarkDefinitions)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		cmd := exec.Command(bench, "-smoke", "-seconds", "0.3", "-trace", map[bool]string{false: "0", true: "1"}[trace],
			"-daemon", daemon, "-trace-dir", t.TempDir())
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace=%v: %v\n%s", trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		records := make(map[string]result)
		for _, line := range lines {
			var r result
			if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &r) == nil && r.Workload != "" {
				records[r.Workload] = r
			}
		}
		want := make(map[string]string)
		if trace {
			for _, m := range bm.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bm.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		for _, w := range bm.Workloads {
			r, ok := records[w.Name]
			switch {
			case !ok:
				t.Errorf("trace=%v: no record for %s", trace, w.Name)
				continue
			case !r.Correct || r.Failed != 0 || r.Attempted == 0:
				t.Errorf("trace=%v %s: correct=%v attempted=%d failed=%d errors=%v", trace, w.Name, r.Correct, r.Attempted, r.Failed, r.Errors)
			case r.Trace != trace:
				t.Errorf("%s: record says trace=%v, want %v", w.Name, r.Trace, trace)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("trace=%v %s: %d metrics, want %d", trace, w.Name, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("trace=%v %s: metric %s = %+v, want unit %s", trace, w.Name, name, m, unit)
				}
			}
		}
		var summary map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range summary {
			keys = append(keys, k)
		}
		if len(keys) != 4 || summary["correct"] == nil || summary["attempted"] == nil || summary["failed"] == nil || summary["metrics"] == nil {
			t.Errorf("last line keys %v, want correct, attempted, failed, metrics", keys)
		}
	}
}

// TestKilledRunLeavesNoProcess kills telabench in the middle of a service
// run and checks that neither the workload's child process nor any daemon
// it started outlives it.
func TestKilledRunLeavesNoProcess(t *testing.T) {
	bench, daemon := binaries(t)
	cmd := exec.Command(bench, "-smoke", "-workload", wServeRepeat, "-seconds", "10", "-daemon", daemon, "-trace-dir", t.TempDir())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pidLine := regexp.MustCompile(`(?:running in|telamallocd) pid (\d+)`)
	var pids []int
	daemons := 0
	sc := bufio.NewScanner(stderr)
	for daemons < serveSetupReps && sc.Scan() {
		if m := pidLine.FindStringSubmatch(sc.Text()); m != nil {
			pid, _ := strconv.Atoi(m[1])
			pids = append(pids, pid)
			if strings.Contains(sc.Text(), "telamallocd") {
				daemons++
			}
		}
	}
	if daemons < serveSetupReps {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("saw %d daemon starts before stderr ended", daemons)
	}
	time.Sleep(300 * time.Millisecond) // into the measured run
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for alive(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("pid %d survived the killed run (all: %v)", pid, pids)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestFailedRunPrintsNoResult checks a run whose daemon cannot start exits
// non-zero without printing a result line.
func TestFailedRunPrintsNoResult(t *testing.T) {
	bench, _ := binaries(t)
	cmd := exec.Command(bench, "-smoke", "-workload", wServeRepeat, "-seconds", "1", "-daemon", "/bin/false", "-trace-dir", t.TempDir())
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("run with a broken daemon exited 0")
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Errorf("failed run printed %q", out)
	}
}

// alive reports whether pid is a live (not zombie) process.
func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	fields := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	return len(fields) > 0 && fields[0] != "Z" && fields[0] != "X"
}

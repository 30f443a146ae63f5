// Command telabench measures the allocator library and telamallocd end to
// end and layer by layer (see README.md). Run it through bench/run.sh, which
// builds it and the daemon from the checkout:
//
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh -workload compile-suite -seed 2  # one workload
//	bash bench/run.sh -workload serve-repeat -trace 1  # per-layer metrics
//	bash bench/run.sh -compare base.txt head.txt       # two commits
//
// Each workload runs in its own child process, so heap state and resident
// memory never carry over from one workload to the next. The last line of
// standard output is one JSON object with the run's verdict and metrics;
// the line before it for each workload is the full record compare reads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one workload run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	daemon   string
	smoke    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("telabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: orders the corpus and the service stream")
	seconds := fs.Float64("seconds", 20, "how long each workload measures")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics instead")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where traced runs write spans as JSONL")
	daemon := fs.String("daemon", "", "telamallocd binary for serve-repeat")
	smoke := fs.Bool("smoke", false, "tiny corpora, for the harness tests")
	compare := fs.Bool("compare", false, "compare runs: -compare BASE HEAD, or -compare BASE... -- HEAD...")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		base, head, ok := compareSides(fs.Args())
		if !ok {
			fmt.Fprintln(stderr, "telabench: -compare takes BASE HEAD, or BASE... -- HEAD...")
			return 2
		}
		if err := runCompare("BENCHMARK.json", base, head, stdout); err != nil {
			fmt.Fprintf(stderr, "telabench: %v\n", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "telabench: bad arguments; see -help")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemon, smoke: *smoke, traceDir: *traceDir}
	if cfg.daemon != "" {
		abs, err := filepath.Abs(cfg.daemon)
		if err != nil {
			fmt.Fprintf(stderr, "telabench: %v\n", err)
			return 2
		}
		cfg.daemon = abs
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	for _, w := range names {
		if _, ok := tailPercentile[w]; !ok {
			fmt.Fprintf(stderr, "telabench: unknown workload %q\n", w)
			return 2
		}
	}
	if *child {
		cfg.workload = names[0]
		return runChild(cfg, stdout, stderr)
	}
	return runParent(cfg, names, stdout, stderr)
}

// runChild runs one workload in this process and prints its result as one
// JSON line.
func runChild(cfg runConfig, stdout, stderr io.Writer) int {
	var r *result
	var err error
	if cfg.workload == wServeRepeat {
		r, err = runServe(cfg)
	} else {
		r, err = runLibrary(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "telabench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "telabench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// childTimeout bounds one workload's child process.
func childTimeout(seconds float64) time.Duration {
	return time.Duration(3*seconds+90) * time.Second
}

// runParent runs each workload in a child process and prints the results.
func runParent(cfg runConfig, names []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "telabench: %v\n", err)
		return 2
	}
	var results []*result
	for _, w := range names {
		c := cfg
		c.workload = w
		r, err := spawnChild(self, c, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "telabench: %s: %v\n", w, err)
			return 1
		}
		printResult(stdout, r)
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintf(stderr, "telabench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		results = append(results, r)
	}
	final := results[0]
	if len(results) > 1 {
		final = combine(results)
	}
	summary, err := final.summary()
	if err != nil {
		fmt.Fprintf(stderr, "telabench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", summary)
	if !final.Correct || final.Failed > 0 {
		return 1
	}
	return 0
}

// spawnChild runs one workload in a fresh process: GOMAXPROCS=2, except the
// service's load generator, which gets one core and leaves the other to the
// daemon's two workers. The child dies with this process.
func spawnChild(self string, cfg runConfig, stderr io.Writer) (*result, error) {
	args := []string{"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-trace-dir", cfg.traceDir,
		"-daemon", cfg.daemon}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(cfg.seconds))
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	procs := "2"
	if cfg.workload == wServeRepeat {
		procs = "1"
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "telabench: %s running in pid %d\n", cfg.workload, cmd.Process.Pid)
	if err := cmd.Wait(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child did not finish within %v", childTimeout(cfg.seconds))
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if !cfg.trace && cfg.workload != wServeRepeat {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child")
		}
		r.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports kB
	}
	return &r, nil
}

// combine folds several workloads' results into the last-line summary:
// metrics are keyed "<workload>/<metric>".
func combine(rs []*result) *result {
	out := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			out.Metrics[r.Workload+"/"+name] = m
		}
	}
	return out
}

// printResult prints a workload's metrics for a human reader.
func printResult(w io.Writer, r *result) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s  seed=%d  trace=%v  %s  attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, verdict, r.Attempted, r.Failed)
	for _, k := range []string{"corpus_sha256", "stream_sha256", "problems", "passes", "samples", "round_samples", "tail_percentile", "beyond_tail", "generator_late_ms_max", "speed_factor", "raw_setup_s", "raw_requests_per_s", "raw_latency_p50_ms", "raw_latency_tail_ms", "traced_passes", "untraced_passes", "spans"} {
		if v, ok := r.Info[k]; ok {
			fmt.Fprintf(w, "   %-22s %v\n", k, v)
		}
	}
	for _, d := range r.defs() {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "   %-38s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
}

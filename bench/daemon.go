package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one telamallocd subprocess serving the line protocol on a free
// loopback port. It is started with a parent-death signal, so it cannot
// outlive the process that started it even when that process is killed.
type daemon struct {
	cmd         *exec.Cmd
	addr        string // line protocol
	metricsAddr string // -metrics-addr, when asked for
	log         *stderrWatch
	exited      chan struct{} // closed once the process has been waited for
	waitErr     error
}

// serveWorkers is the daemon's worker count: one per core.
const serveWorkers = 2

// daemonStartTimeout bounds how long a daemon may take to start listening.
const daemonStartTimeout = 20 * time.Second

// daemonStopTimeout bounds a SIGTERM drain before the daemon is killed.
const daemonStopTimeout = 10 * time.Second

// startDaemon runs bin with the benchmark's service configuration plus
// extra flags, and returns once it listens.
func startDaemon(bin string, metrics bool, extra ...string) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-workers", strconv.Itoa(serveWorkers), "-parallel", "1", "-q"}
	if metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	w := newStderrWatch(metrics)
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: w, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-w.ready:
		d.addr, d.metricsAddr = w.addrs()
		fmt.Fprintf(os.Stderr, "telabench: telamallocd pid %d listening on %s\n", cmd.Process.Pid, d.addr)
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("telamallocd exited before listening: %v: %s", d.waitErr, w.tail())
	case <-time.After(daemonStartTimeout):
		d.kill()
		return nil, fmt.Errorf("telamallocd did not listen within %v: %s", daemonStartTimeout, w.tail())
	}
}

// stop drains the daemon with SIGTERM and waits for it, killing it if the
// drain overruns. A drain that did not exit cleanly is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return fmt.Errorf("signal telamallocd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(daemonStopTimeout):
		d.kill()
		return fmt.Errorf("telamallocd did not drain within %v", daemonStopTimeout)
	}
	if d.waitErr != nil {
		return fmt.Errorf("telamallocd drain: %v: %s", d.waitErr, d.log.tail())
	}
	return nil
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // an already-exited process is fine
	<-d.exited
}

// peakRSSMB reads the daemon's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrapeMetrics reads the daemon's Prometheus exposition into a map keyed
// by series ("name{labels}").
func (d *daemon) scrapeMetrics() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// memStats is the part of the daemon's runtime.MemStats the traced run
// reads from /debug/vars.
type memStats struct {
	Mallocs, TotalAlloc, PauseTotalNs uint64
}

func (d *daemon) memStats() (memStats, error) {
	body, err := d.get("/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return memStats{}, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.Memstats, nil
}

func (d *daemon) get(path string) ([]byte, error) {
	if d.metricsAddr == "" {
		return nil, errors.New("daemon started without -metrics-addr")
	}
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + d.metricsAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// stderrWatch collects a daemon's stderr, signals ready once the listen
// address (and, when asked for, the metrics address) has been announced, and
// keeps the last lines for error messages.
type stderrWatch struct {
	wantMetrics bool
	ready       chan struct{}

	mu       sync.Mutex
	partial  []byte
	lines    []string
	addr     string
	metrics  string
	signaled bool
}

func newStderrWatch(wantMetrics bool) *stderrWatch {
	return &stderrWatch{wantMetrics: wantMetrics, ready: make(chan struct{})}
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		line := string(w.partial[:i])
		w.partial = w.partial[i+1:]
		if rest, ok := strings.CutPrefix(line, "telamallocd: listening on "); ok {
			w.addr = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "telamallocd: observability on http://"); ok {
			w.metrics = strings.TrimSuffix(strings.TrimSpace(rest), "/metrics")
		}
		if w.lines = append(w.lines, line); len(w.lines) > 20 {
			w.lines = w.lines[1:]
		}
	}
	if !w.signaled && w.addr != "" && (!w.wantMetrics || w.metrics != "") {
		w.signaled = true
		close(w.ready)
	}
	return len(p), nil
}

func (w *stderrWatch) addrs() (string, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.addr, w.metrics
}

func (w *stderrWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.lines, " | ")
}

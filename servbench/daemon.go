package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonFlags are the flags of the repository's one deployment config,
// docker-compose.yml, minus its addresses: a durable session store with a
// 100 ms group-commit fsync. Everything else stays at its default.
var daemonFlags = []string{"-fsync", "100ms"}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux architecture Go supports).
const clockTicks = 100

// daemon is one running hyperearservd child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan struct{} // closed once the child is reaped
	waitErr error         // valid after exited closes

	logMu sync.Mutex
	log   []string // tail of the daemon's stderr, for diagnostics
}

// startDaemon execs the built daemon on a loopback port with a fresh data
// directory and waits for its listen line.
func startDaemon(bin, dataDir string) (*daemon, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, daemonFlags...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, exited: make(chan struct{})}
	addr := make(chan string, 1)
	// The reader drains stderr until the child closes it, so the child
	// never blocks on a full pipe; Wait runs only after it returns.
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logLine(line)
			if rest, ok := strings.CutPrefix(line, "hyperearservd: listening on "); ok {
				select {
				case addr <- rest:
				default:
				}
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited before listening (%v): %s", d.waitErr, d.logTail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon never reported a listen address: %s", d.logTail())
	}
}

func (d *daemon) logLine(line string) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	d.log = append(d.log, line)
	if len(d.log) > 40 {
		d.log = d.log[len(d.log)-40:]
	}
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, "\n")
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v (last error %v)", timeout, err)
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited while starting (%v): %s", d.waitErr, d.logTail())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// timeout.
func (d *daemon) stop(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling daemon: %w", err)
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("daemon drain exited with %v: %s", d.waitErr, d.logTail())
		}
		return nil
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("daemon did not drain within %v", timeout)
	}
}

// kill SIGKILLs the daemon (if still running) and waits until it is
// reaped. Safe to call after stop.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", s)
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// metricsSnapshot is the part of the daemon's JSON /metrics the benchmark
// reads.
type metricsSnapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]struct {
		Value int64 `json:"value"`
		Max   int64 `json:"max"`
	} `json:"gauges"`
}

// sumPrefix totals the counters whose names start with prefix.
func (m metricsSnapshot) sumPrefix(prefix string) uint64 {
	var n uint64
	for name, v := range m.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// scrape fetches the daemon's JSON /metrics.
func (d *daemon) scrape(c *http.Client) (metricsSnapshot, error) {
	var m metricsSnapshot
	resp, err := c.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return m, err
	}
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("/metrics: %w", err)
	}
	return m, nil
}

// warmups picks one item per distinct pipeline configuration the corpus
// exercises — each phone geometry (its own cached localizer, template
// spectra and plans) in each mode — the shortest of each.
func warmups(items []*Item) []*Item {
	best := map[string]*Item{}
	for _, it := range items {
		k := it.Phone + "/" + it.Mode
		if b := best[k]; b == nil || it.PCMLen < b.PCMLen {
			best[k] = it
		}
	}
	out := make([]*Item, 0, len(best))
	for _, it := range items {
		if best[it.Phone+"/"+it.Mode] == it {
			out = append(out, it)
		}
	}
	return out
}

// harness owns the daemon lifecycle of one benchmark run.
type harness struct {
	bin     string
	workDir string
	client  *http.Client
	runs    int
}

// setup starts a fresh daemon and times setup_s: from exec to /readyz
// 200, then one correct warm-up locate per pipeline configuration.
func (h *harness) setup(ctx context.Context, warm []*Item) (*daemon, float64, error) {
	h.runs++
	dir := filepath.Join(h.workDir, fmt.Sprintf("data-%d", h.runs))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(h.bin, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitReady(h.client, 30*time.Second); err != nil {
		d.kill()
		return nil, 0, err
	}
	for _, it := range warm {
		status, body, err := post(ctx, h.client, d.base+"/v1/locate?mode="+it.Mode, it.ContentType, it.Body)
		if err == nil {
			err = checkStatus("warm-up locate", status, statusLocate, body)
		}
		if err == nil {
			_, err = checkLocate(it, body)
		}
		if err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

// retire drains a daemon and removes its data directory.
func (h *harness) retire(d *daemon) error {
	err := d.stop(60 * time.Second)
	if rerr := os.RemoveAll(d.dataDir); err == nil {
		err = rerr
	}
	return err
}

// post sends one request and reads the whole response.
func post(ctx context.Context, c *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	return do(ctx, c, http.MethodPost, url, contentType, body)
}

func do(ctx context.Context, c *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

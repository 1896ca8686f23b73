// Command servbench is the service benchmark for hyperearservd. It drives
// the real daemon binary over loopback HTTP from one process, checks
// every response against an oracle, and prints the end-to-end metrics of
// one workload; with --trace 1 it also replays the workload's inputs one
// at a time through the idle daemon and through the served path's public
// entry points in-process, and prints per-layer metrics instead.
//
// Run it through run.sh from the repository root, which builds the daemon
// and this command from the checkout:
//
//	bash servbench/run.sh --workload locate-batch --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; the line before
// it stamps the run's provenance. BENCHMARK.md beside this file describes
// the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"hyperear/internal/core"
	"hyperear/internal/sessionstore"
)

// Workload parameters. batchRate is the open-loop arrival rate: about 40%
// of the daemon's closed-loop throughput with two clients posting back to
// back (13.3 locates/s, the median of 15 runs of 20 s on a 2-core host, at
// the commit that introduced the benchmark). It is absolute, so later
// commits are compared at the same offered load.
const (
	batchRate    = 5.1 // locates per second
	streamPhones = 16
	streamGap    = time.Second // from a phone's IMU upload to its next create: room for the locate
	probeItems   = 8           // sessions in locate-batch's feedback probe
	setupRuns    = 5           // setup_s is the median of this many daemon starts
	replayInputs = 8           // inputs the traced run replays
	runTimeout   = 170 * time.Second
)

// Latency limits the run checks its tails against: the daemon's default
// -slo-target for locates, and one chunk period (4096 frames at 44.1 kHz)
// for streaming feedback, past which feedback falls behind real time.
const (
	locateLimitMS = 1000
	chunkLimitMS  = 92.9
)

var workloads = []string{"locate-batch", "stream-sessions"}

// metric units, by name.
var units = map[string]string{
	"setup_s": "s", "locate_ms_p50": "ms", "locates_per_s": "1/s", "chunk_ms_p50": "ms",
	"err_cm_p50": "cm", "err_cm_p90": "cm", "cpu_cores": "cores", "rss_peak_mb": "MB",

	"gen.lag_ms_p99": "ms", "sessionio.decode_ms_p50": "ms", "sessionio.decode_kb": "KiB",
	"core.asp_ms_p50": "ms", "core.msp_ms_p50": "ms", "core.pde_ms_p50": "ms",
	"core.locate_ms_p50": "ms", "core.other_ms_p50": "ms", "core.locate_allocs": "count",
	"core.fix_ratio": "ratio", "chirp.push_ms_p50": "ms", "chirp.push_ms_p99": "ms",
	"sessionstore.append_ms_p50": "ms", "sessionstore.append_ms_p99": "ms",
	"sessionstore.snapshots": "count", "sessionstore.wal_mb": "MB",
	"server.locate_http_ms_p50": "ms", "server.locate_self_ms_p50": "ms",
	"server.chunk_http_ms_p50": "ms", "server.chunk_self_ms_p50": "ms",
	"server.queue_depth_max": "count", "server.shed": "count",
	"server.batch_lanes_per_batch": "ratio", "trace.span_overhead_us": "us",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	daemon, work string
	root         string
}

func parseFlags() (options, error) {
	var o options
	fs := flag.NewFlagSet("servbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated traffic")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "1: traced per-layer run; 0: end-to-end run")
	fs.StringVar(&o.daemon, "daemon", "", "path of the built hyperearservd")
	fs.StringVar(&o.work, "work", "", "scratch directory for data dirs, caches and traces")
	fs.StringVar(&o.root, "root", ".", "repository root (hashed to key the corpus cache)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return o, err
	}
	switch {
	case !slices.Contains(workloads, o.workload):
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds %d < 1", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace %d (want 0 or 1)", o.trace)
	case o.daemon == "" || o.work == "":
		return o, errors.New("-daemon and -work are required")
	}
	return o, nil
}

func run() error {
	o, err := parseFlags()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	// Open connections and GOMAXPROCS stay within nproc.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	conns := nproc
	work := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	digest, err := sourceDigest(o.root)
	if err != nil {
		return fmt.Errorf("hashing sources: %w", err)
	}
	t0 := time.Now()
	pipes := newPipelines(nproc)
	items, cached, err := LoadCorpus(ctx, pipes, digest, filepath.Join(o.work, "cache"), nproc)
	if err != nil {
		return err
	}
	if cached {
		computeRefs(ctx, items, pipes, nproc)
	}
	fmt.Fprintf(os.Stderr, "servbench: corpus of %d sessions (cached %v) and references in %.1fs\n", len(items), cached, time.Since(t0).Seconds())

	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   90 * time.Second,
	}
	defer client.CloseIdleConnections()
	h := &harness{bin: o.daemon, workDir: work, client: client}
	warm := warmups(items)
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		var s float64
		d, s, err = h.setup(ctx, warm)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		if i < setupRuns-1 {
			if err := h.retire(d); err != nil {
				return err
			}
		}
	}
	defer d.kill()

	rng := rand.New(rand.NewSource(o.seed))
	window := time.Duration(o.seconds) * time.Second
	var before metricsSnapshot
	var cpu0 float64
	var at0 time.Time
	var markErr error
	mark := func() {
		before, markErr = d.scrape(client)
		if markErr == nil {
			cpu0, markErr = d.cpuSeconds()
		}
		at0 = time.Now()
	}
	var p *phase
	switch o.workload {
	case "locate-batch":
		p = runLocateBatch(ctx, client, d.base, items, rng, window, batchRate, conns, mark)
	case "stream-sessions":
		p, err = runStreamSessions(ctx, client, d.base, items, rng, window, mark)
		if err != nil {
			return err
		}
	}
	if markErr != nil {
		return markErr
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	cores := (cpu1 - cpu0) / time.Since(at0).Seconds()
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	after, err := d.scrape(client)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("run exceeded %v", runTimeout)
	}

	if o.workload == "locate-batch" {
		// The batch workload streams nothing; its feedback figures come
		// from a probe on the now idle daemon.
		p.batch = map[int][]byte{}
		for _, op := range p.ops {
			if op.err == nil && op.c.kind == opLocate {
				p.batch[op.item.Index] = op.c.resp
			}
		}
		runProbe(ctx, client, d.base, order(items, probeItems, rng), p)
	}

	var layerM map[string]float64
	if o.trace == 1 {
		layerM, err = traced(ctx, o, client, d, pipes, order(items, replayInputs, rng), p, before, after, work)
		if err != nil {
			return err
		}
	}
	if err := h.retire(d); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	res := summarize(p)
	res.metrics["setup_s"] = median(setups)
	res.metrics["cpu_cores"] = cores
	res.metrics["rss_peak_mb"] = rss
	fmt.Fprintf(os.Stderr, "servbench: %s seed %d: %d ops, %d failed; setups %.3v s\n", o.workload, o.seed, res.attempted, res.failed, setups)
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "servbench: oracle:", e)
	}
	for name, t := range res.tails {
		if !(t.Value <= t.Limit) {
			fmt.Fprintf(os.Stderr, "servbench: %s = %.4g exceeds its limit %.4g\n", name, t.Value, t.Limit)
		}
	}
	if o.trace == 1 {
		for name, v := range res.metrics {
			fmt.Fprintf(os.Stderr, "servbench: untraced %s = %.4g\n", name, v)
		}
		res.metrics = layerM
	}
	prov := provenance(o, digest, nproc, work, items, cached)
	prov["samples"], prov["tails"] = res.samples, res.tails
	return emit(os.Stdout, prov, res)
}

// traced runs the per-layer replay of inputs on the idle daemon and
// derives the per-layer metrics.
func traced(ctx context.Context, o options, client *http.Client, d *daemon, pipes *pipelines, inputs []*Item, p *phase, before, after metricsSnapshot, work string) (map[string]float64, error) {
	store, err := sessionstore.Open(filepath.Join(work, "replay-store"), sessionstore.Options{
		Fsync: sessionstore.FsyncInterval, FsyncInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	rec := newRecorder()
	l := &layers{pipes: pipes, asps: map[float64]*core.ASP{}, store: store}
	ts, err := replay(ctx, rec, client, d.base, l, inputs, p)
	if err != nil {
		return nil, err
	}
	var lags []float64
	for _, op := range p.ops {
		if op.measured && !op.c.sent.IsZero() {
			lags = append(lags, float64(op.c.lag())/1e6)
		}
	}
	m := layerMetrics(ts, lags, before, after, rec.overheadUS())
	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servbench: %d inputs replayed, %d spans in %s\n", len(ts), len(rec.spans), path)
	return m, nil
}

// result is the run's verdict and metrics.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	samples           map[string]int // sample counts behind the metrics
	tails             map[string]tail
}

// tail is a latency percentile and the limit it should stay within.
type tail struct {
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
}

// summarize applies the end-to-end metric definitions to a phase.
func summarize(p *phase) *result {
	r := &result{metrics: map[string]float64{}}
	var locs, chunks []float64
	// A correct fix is bit-identical to the item's reference, so its
	// error is a property of the item: each item counts once, however
	// often the seed's schedule sends it.
	errCM := map[int]float64{}
	last := p.start
	for _, op := range p.ops {
		r.attempted++
		if op.err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, op.err.Error())
			}
			continue
		}
		switch {
		case op.timed && (op.c.kind == opLocate || op.c.kind == opSessLocate):
			locs = append(locs, float64(op.c.latency())/1e6)
			errCM[op.item.Index] = 100 * op.errM
			last = maxTime(last, op.c.end)
		case op.measured && op.c.kind == opChunk:
			chunks = append(chunks, float64(op.c.latency())/1e6)
		}
	}
	errs := make([]float64, 0, len(errCM))
	for _, e := range errCM {
		errs = append(errs, e)
	}
	r.samples = map[string]int{"locates": len(locs), "chunks": len(chunks), "items": len(errs)}
	r.metrics["locate_ms_p50"] = median(locs)
	r.metrics["locates_per_s"] = float64(len(locs)) / last.Sub(p.start).Seconds()
	r.metrics["chunk_ms_p50"] = median(chunks)
	r.metrics["err_cm_p50"] = median(errs)
	r.metrics["err_cm_p90"] = quantile(errs, 0.9)
	// The tails are checked against the latency limits but are not
	// metrics: too few independent slow events land in one run for them to
	// repeat from run to run.
	r.tails = map[string]tail{
		"locate_ms_p90": {quantile(locs, 0.9), locateLimitMS},
		"chunk_ms_p99":  {quantile(chunks, 0.99), chunkLimitMS},
	}
	return r
}

// emit prints the provenance line and, last, the result object. A metric
// that could not be measured fails the run rather than being reported.
func emit(w io.Writer, prov map[string]any, r *result) error {
	correct := r.failed == 0 && r.attempted > 0
	out := map[string]any{}
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			fmt.Fprintf(os.Stderr, "servbench: metric %s not measured\n", name)
			v = 0
		}
		out[name] = map[string]any{"value": v, "unit": units[name]}
	}
	pl, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	rl, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", pl, rl)
	return err
}

// provenance stamps the run with what produced it.
func provenance(o options, digest string, nproc int, work string, items []*Item, cached bool) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(o.root, digest),
		"data_fs":    fsType(work),
		"corpus":     map[string]any{"sessions": len(items), "seed": corpusSeed, "cached": cached, "redraws": redraws(items)},
	}
}

func redraws(items []*Item) int {
	n := 0
	for _, it := range items {
		n += it.Redraws
	}
	return n
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the git HEAD when the checkout has
// one, and always the source digest.
func commit(root, digest string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "src:" + digest
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			ref = strings.TrimSpace(string(b))
		}
	}
	return "git:" + ref + " src:" + digest
}

// fsType names the filesystem holding dir (the daemon's data dirs).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x01021997: "9p", 0x6a656a63: "virtiofs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

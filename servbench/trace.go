package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/sessionio"
	"hyperear/internal/sessionstore"
)

// span is one timed call in the traced replay.
type span struct {
	Name   string        `json:"name"`
	Trace  int           `json:"trace"`  // one id per replayed input
	Parent int           `json:"parent"` // index of the causing span, -1 for a root
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory; they are written out once the replay
// ends, so recording costs two clock reads and an append.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, trace, parent int) int {
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) span {
	r.spans[i].End = time.Since(r.epoch)
	return r.spans[i]
}

// overheadUS measures what recording one span costs, in microseconds.
func (r *recorder) overheadUS() float64 {
	const n = 20000
	probe := &recorder{epoch: r.epoch, spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("overhead", 0, -1))
	}
	return float64(time.Since(t0).Microseconds()) / n
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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

// layers holds the in-process entry points of the served path, built
// with the daemon's pipeline config.
type layers struct {
	pipes *pipelines
	asps  map[float64]*core.ASP
	store *sessionstore.FileStore
}

func (l *layers) asp(meta sessionio.Meta) (*core.ASP, core.Config, error) {
	cfg := daemonPipeline(meta, l.pipes.gomaxprocs)
	if a, ok := l.asps[meta.MicSeparation]; ok {
		return a, cfg, nil
	}
	// The stage config NewLocalizer derives: the defaults, carrying the
	// pipeline's parallelism and batch window.
	aspCfg := cfg.ASP
	aspCfg.Parallelism = cfg.Parallelism
	a, err := core.NewASP(cfg.Source, cfg.SampleRate, aspCfg)
	if err != nil {
		return nil, cfg, err
	}
	l.asps[meta.MicSeparation] = a
	return a, cfg, nil
}

// itemTrace is what the replay measured for one input.
type itemTrace struct {
	locateHTTP, decode                float64 // ms
	asp, msp, pde, locate             float64 // ms, medians over reps
	other                             float64 // ms, median over reps of locate − asp − msp − pde
	decodeBytes, locateAllocs         float64
	fixes, movements                  int
	chunkHTTP, push1, push2, appendMS []float64 // per chunk, ms
}

// traceReps is how often each core entry point runs per input; the
// per-input figure is the median, so one descheduled call does not skew
// the residual.
const traceReps = 5

// replay runs the traced pass: each input once through the idle daemon,
// then through the public entry points in-process, every call a span.
func replay(ctx context.Context, rec *recorder, client *http.Client, base string, l *layers, items []*Item, p *phase) ([]itemTrace, error) {
	var out []itemTrace
	for n, it := range items {
		t, ok, err := replayItem(ctx, rec, client, base, l, it, n, p)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// replayItem replays one input; ok is false when the daemon's answer
// failed the oracle (the failure is recorded in p and the input skipped).
func replayItem(ctx context.Context, rec *recorder, client *http.Client, base string, l *layers, it *Item, trace int, p *phase) (t itemTrace, ok bool, err error) {
	root := rec.begin("replay.input", trace, -1)
	defer rec.end(root)

	// 1. The input once through the idle daemon: the batch upload, then
	// the same session streamed.
	sp := rec.begin("server.locate_http", trace, root)
	c := locateCall(it, time.Time{})
	newLanes(ctx, client, base).exec(c)
	t.locateHTTP = rec.end(sp).ms()
	o := checkedLocate(c, it, false)
	p.add(o)
	if o.err != nil {
		return t, false, nil
	}
	p.batch[it.Index] = c.resp

	sess := &session{it: it}
	q := make(chan *call)
	ln := newLanes(ctx, client, base)
	ln.serve(q)
	s := &streamer{ctl: q, loc: q, p: p}
	sp = rec.begin("server.session_http", trace, root)
	if s.create(sess, time.Time{}, false) {
		for _, chunk := range it.Chunks() {
			csp := rec.begin("server.chunk_http", trace, sp)
			ok := s.chunk(sess, chunk, time.Time{}, false)
			t.chunkHTTP = append(t.chunkHTTP, rec.end(csp).ms())
			if !ok {
				break
			}
		}
		if !sess.dead {
			s.finish(sess, time.Time{}, false)
		} else {
			s.remove(sess, time.Time{}, false)
		}
	}
	rec.end(sp)
	close(q)
	ln.wait()

	// 2. The same input through the public entry points in-process.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	sp = rec.begin("sessionio.decode", trace, root)
	b, err := decodeBundle(it)
	t.decode = rec.end(sp).ms()
	runtime.ReadMemStats(&ms)
	t.decodeBytes = float64(ms.TotalAlloc - before)
	if err != nil {
		return t, false, fmt.Errorf("replay item %d: decode: %w", it.Index, err)
	}
	defer sessionio.RecycleBundle(b)
	asp, cfg, err := l.asp(b.Meta)
	if err != nil {
		return t, false, err
	}
	loc, err := l.pipes.localizer(b.Meta)
	if err != nil {
		return t, false, err
	}
	// An untimed locate first, so the stages below find the bundle's
	// buffers in cache as the timed locate does.
	if _, err := locateWith(ctx, loc, b, it.Mode); err != nil {
		return t, false, fmt.Errorf("replay item %d: locate: %w", it.Index, err)
	}
	var asps, msps, pdes, locs, others, allocs [traceReps]float64
	for r := 0; r < traceReps; r++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		sp = rec.begin("core.locate", trace, root)
		f, err := locateWith(ctx, loc, b, it.Mode)
		locs[r] = rec.end(sp).ms()
		runtime.ReadMemStats(&ms)
		allocs[r] = float64(ms.Mallocs - mallocs)
		if err != nil {
			return t, false, fmt.Errorf("replay item %d: locate: %w", it.Index, err)
		}
		if err := sameFix(f, it.ref); err != nil {
			return t, false, fmt.Errorf("replay item %d: in-process locate differs from reference: %w", it.Index, err)
		}
		if r == 0 {
			t.fixes, _ = f.accepted()
			t.movements = f.Movements
		}

		sp = rec.begin("core.asp", trace, root)
		if _, err := asp.ProcessContext(ctx, b.Recording); err != nil {
			return t, false, fmt.Errorf("replay item %d: asp: %w", it.Index, err)
		}
		asps[r] = rec.end(sp).ms()

		sp = rec.begin("core.msp", trace, root)
		msp, err := core.PreprocessIMU(b.IMU, cfg.MSP)
		msps[r] = rec.end(sp).ms()
		if err != nil {
			return t, false, fmt.Errorf("replay item %d: msp: %w", it.Index, err)
		}

		sp = rec.begin("core.pde", trace, root)
		for _, seg := range msp.Segments {
			core.EstimateMovement(msp, seg, cfg.PDE)
		}
		pdes[r] = rec.end(sp).ms()
		others[r] = locs[r] - asps[r] - msps[r] - pdes[r]
	}
	t.asp, t.msp, t.pde, t.locate = median(asps[:]), median(msps[:]), median(pdes[:]), median(locs[:])
	t.other, t.locateAllocs = median(others[:]), median(allocs[:])

	// The streamed session's store and detector work, in the order the
	// server runs it per chunk: WAL append, then both channels' pushes.
	det1, err := chirp.NewStreamDetector(cfg.Source, b.Recording.Fs)
	if err != nil {
		return t, false, err
	}
	det2, err := chirp.NewStreamDetector(cfg.Source, b.Recording.Fs)
	if err != nil {
		return t, false, err
	}
	id := fmt.Sprintf("replay-%d-%d", trace, it.Index)
	if err := l.store.Create(id, b.Meta, cfg.Source, b.Recording.Fs); err != nil {
		return t, false, err
	}
	for _, chunk := range it.Chunks() {
		c1, c2 := decodePCM(chunk)
		sp = rec.begin("sessionstore.append", trace, root)
		err := l.store.AppendAudio(id, chunk)
		t.appendMS = append(t.appendMS, rec.end(sp).ms())
		if err != nil {
			return t, false, err
		}
		sp = rec.begin("chirp.push", trace, root)
		det1.PushContext(ctx, c1)
		t.push1 = append(t.push1, rec.end(sp).ms())
		sp = rec.begin("chirp.push", trace, root)
		det2.PushContext(ctx, c2)
		t.push2 = append(t.push2, rec.end(sp).ms())
	}
	if det1.Consumed() != it.PCMLen/4 {
		return t, false, fmt.Errorf("replay item %d: stream detector consumed %d of %d frames", it.Index, det1.Consumed(), it.PCMLen/4)
	}
	if err := l.store.SetIMU(id, it.IMU); err != nil {
		return t, false, err
	}
	if err := l.store.NoteLocate(id); err != nil {
		return t, false, err
	}
	return t, true, l.store.Evict(id, "explicit")
}

// decodePCM splits interleaved stereo int16 LE PCM into channels scaled
// as the server scales them.
func decodePCM(raw []byte) ([]float64, []float64) {
	n := len(raw) / 4
	c1, c2 := make([]float64, n), make([]float64, n)
	for i := range c1 {
		c1[i] = float64(int16(binary.LittleEndian.Uint16(raw[i*4:]))) / 32767
		c2[i] = float64(int16(binary.LittleEndian.Uint16(raw[i*4+2:]))) / 32767
	}
	return c1, c2
}

// layerMetrics derives the per-layer metrics from the replay and the
// load phase's counts.
func layerMetrics(ts []itemTrace, lags []float64, before, after metricsSnapshot, overheadUS float64) map[string]float64 {
	var locHTTP, decode, decodeKB, asp, msp, pde, loc, other, allocs, locSelf []float64
	var chunkHTTP, push, appendMS, chunkSelf []float64
	fixes, movements := 0, 0
	for _, t := range ts {
		locHTTP = append(locHTTP, t.locateHTTP)
		decode = append(decode, t.decode)
		decodeKB = append(decodeKB, t.decodeBytes/1024)
		asp = append(asp, t.asp)
		msp = append(msp, t.msp)
		pde = append(pde, t.pde)
		loc = append(loc, t.locate)
		other = append(other, t.other)
		allocs = append(allocs, t.locateAllocs)
		locSelf = append(locSelf, t.locateHTTP-t.decode-t.locate)
		fixes += t.fixes
		movements += t.movements
		push = append(push, t.push1...)
		push = append(push, t.push2...)
		appendMS = append(appendMS, t.appendMS...)
		chunkHTTP = append(chunkHTTP, t.chunkHTTP...)
		for i := 0; i < len(t.chunkHTTP) && i < len(t.appendMS); i++ {
			chunkSelf = append(chunkSelf, t.chunkHTTP[i]-t.push1[i]-t.push2[i]-t.appendMS[i])
		}
	}
	m := map[string]float64{
		"gen.lag_ms_p99":               quantile(lags, 0.99),
		"sessionio.decode_ms_p50":      median(decode),
		"sessionio.decode_kb":          median(decodeKB),
		"core.asp_ms_p50":              median(asp),
		"core.msp_ms_p50":              median(msp),
		"core.pde_ms_p50":              median(pde),
		"core.locate_ms_p50":           median(loc),
		"core.other_ms_p50":            median(other),
		"core.locate_allocs":           median(allocs),
		"chirp.push_ms_p50":            median(push),
		"chirp.push_ms_p99":            quantile(push, 0.99),
		"sessionstore.append_ms_p50":   median(appendMS),
		"sessionstore.append_ms_p99":   quantile(appendMS, 0.99),
		"sessionstore.snapshots":       float64(after.Counters["server.store.snapshots"] - before.Counters["server.store.snapshots"]),
		"sessionstore.wal_mb":          float64(after.Counters["server.store.append_bytes"]-before.Counters["server.store.append_bytes"]) / 1e6,
		"server.locate_http_ms_p50":    median(locHTTP),
		"server.locate_self_ms_p50":    median(locSelf),
		"server.chunk_http_ms_p50":     median(chunkHTTP),
		"server.chunk_self_ms_p50":     median(chunkSelf),
		"server.queue_depth_max":       float64(after.Gauges["server.queue.depth"].Max),
		"server.shed":                  float64(after.sumPrefix("server.requests.shed.") - before.sumPrefix("server.requests.shed.")),
		"server.batch_lanes_per_batch": 0,
		"core.fix_ratio":               0,
		"trace.span_overhead_us":       overheadUS,
	}
	if movements > 0 {
		m["core.fix_ratio"] = float64(fixes) / float64(movements)
	}
	// The batch gauges hold running totals; the load phase is the delta.
	if b := after.Gauges["server.batch.batches"].Value - before.Gauges["server.batch.batches"].Value; b > 0 {
		m["server.batch_lanes_per_batch"] = float64(after.Gauges["server.batch.lanes"].Value-before.Gauges["server.batch.lanes"].Value) / float64(b)
	}
	return m
}

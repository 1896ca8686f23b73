// Package server exposes the HyperEar localization pipeline as an HTTP
// service. The routing is thin; the substance is the robustness layer:
// a bounded admission pool (GOMAXPROCS workers by default), per-request
// deadlines propagated via context into the pipeline's stage loops,
// load-shedding with Retry-After when the queue is full, per-session idle
// eviction for the streaming-ingest path, request-size limits, and a
// graceful drain sequence. DESIGN.md "Service architecture" has the
// diagrams and accounting identities.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/mic"
	"hyperear/internal/obs"
	"hyperear/internal/sessionio"
	"hyperear/internal/sessionstore"
)

// Config sizes the service. Zero values select the documented defaults;
// Normalize applies them.
type Config struct {
	// Workers bounds concurrently running localizations. 0 uses
	// GOMAXPROCS. Each localization detects its two channels
	// concurrently, and the Go scheduler shares the cores between
	// workers.
	Workers int
	// Queue bounds admitted-but-waiting localizations beyond Workers.
	// Requests past workers+queue are shed with 429.
	Queue int
	// RequestTimeout is the per-request pipeline deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps any single request body (multipart bundle or
	// audio chunk); Normalize caps it at the largest payload one session
	// store record holds.
	MaxBodyBytes int64
	// MaxSessionSamples caps the per-channel audio a streaming session
	// may accumulate.
	MaxSessionSamples int
	// MaxSessions caps live streaming sessions; at capacity the stalest
	// is evicted to admit a new one.
	MaxSessions int
	// SessionIdleTimeout evicts sessions with no activity for this long.
	SessionIdleTimeout time.Duration
	// SweepInterval is how often the idle janitor runs.
	SweepInterval time.Duration
	// MetricsWindow is the nominal span of the rolling latency window
	// behind /debug/slo and the hyperear_rolling_* Prometheus
	// summaries. 0 selects 5 minutes; negative disables windowing. The
	// window advances on the janitor's SweepInterval ticks.
	MetricsWindow time.Duration
	// SLOTarget is the per-request latency target /debug/slo reports
	// attainment against. 0 selects 1s.
	SLOTarget time.Duration
	// SLOObjective is the attainment fraction the SLO demands, in
	// (0, 1]. 0 selects 0.99.
	SLOObjective float64
	// AccessLog, when non-nil, receives one JSON line per HTTP request
	// (trace ID, route, status, admission outcome, duration, bytes).
	// Writes are serialized by the server; the writer itself need not
	// be concurrency-safe.
	AccessLog io.Writer
	// Store persists streaming-session mutations for crash recovery:
	// every create/audio/IMU/locate/evict becomes a store event
	// (appended before the in-memory state mutates), and New replays
	// the store's sessions back into the table so in-flight users
	// survive a restart. nil (the default) keeps sessions only in
	// process memory — the pre-durability behavior. See
	// internal/sessionstore for the WAL-backed implementation and
	// DESIGN.md §11 "Durability" for the recovery sequence.
	Store sessionstore.SessionStore
	// Pipeline is the default localization config (beacon parameters,
	// geometry, stage tuning). Per-request meta may override Source,
	// SampleRate and MicSeparation.
	Pipeline core.Config
	// Obs receives the server.* counters and gauges alongside the
	// pipeline's own metrics; nil disables accounting.
	Obs *obs.Obs
}

// Normalize fills zero fields with defaults and returns the result.
func (c Config) Normalize() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 2 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	} else if c.MaxBodyBytes > sessionstore.MaxPayloadBytes {
		c.MaxBodyBytes = sessionstore.MaxPayloadBytes
	}
	if c.MaxSessionSamples <= 0 {
		c.MaxSessionSamples = 48000 * 120 // two minutes at 48 kHz
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 2 * time.Minute
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 15 * time.Second
	}
	if c.MetricsWindow == 0 {
		c.MetricsWindow = 5 * time.Minute
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = time.Second
	}
	if c.SLOObjective <= 0 || c.SLOObjective > 1 {
		c.SLOObjective = 0.99
	}
	return c
}

// Server is the HTTP front end. Construct with New, serve via Handler,
// shut down with BeginDrain + (http.Server).Shutdown + FinishShutdown.
type Server struct {
	cfg      Config
	o        *obs.Obs
	pool     *pool
	sessions *sessionTable
	mux      *http.ServeMux
	handler  http.Handler
	window   *obs.Window
	accessMu sync.Mutex
	draining atomic.Bool

	// clock is swapped by tests driving idle eviction.
	clock func() time.Time

	// locMu guards the localizer cache: building a Localizer renders the
	// beacon template and FFT plans, so requests sharing parameters share
	// the instance (Localizer is safe for concurrent use). The cache holds
	// at most maxLocalizers entries, evicting the least recently used.
	locMu sync.Mutex
	// locs is the localizer cache.
	//
	// guarded by locMu
	locs map[locKey]*locEntry
	// locTick stamps cache hits for least-recently-used eviction.
	//
	// guarded by locMu
	locTick uint64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// locKey identifies a localizer by the per-request-overridable pipeline
// parameters. chirp.Params is an all-float64 struct, so the key is
// comparable.
type locKey struct {
	src    chirp.Params
	fs     float64
	micSep float64
}

// locEntry is one cached Localizer and its last use.
type locEntry struct {
	loc  *core.Localizer
	used uint64
}

// maxLocalizers caps the localizer cache. Its keys come from client
// meta, so without a cap every distinct meta would pin a Localizer for
// the process's life. A streamed session keeps the Localizer it
// resolved at create, so eviction never changes what its locate runs.
const maxLocalizers = 16

// New builds a Server and starts its idle-eviction janitor.
func New(cfg Config) *Server {
	cfg = cfg.Normalize()
	s := &Server{
		cfg:         cfg,
		o:           cfg.Obs,
		pool:        newPool(cfg.Workers, cfg.Queue, cfg.Obs.Gauge(GQueueDepth)),
		sessions:    newSessionTable(cfg.MaxSessions, cfg.SessionIdleTimeout, cfg.Store, cfg.Obs),
		clock:       time.Now,
		locs:        make(map[locKey]*locEntry),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if cfg.Store != nil {
		s.recoverSessions()
	}
	s.mux = s.buildMux()
	s.handler = s.withTrace(s.mux)
	s.window = obs.NewWindow(cfg.Obs.Registry(), cfg.MetricsWindow, cfg.SweepInterval,
		s.clock(), MReqDuration, "span.*")
	go s.janitor()
	return s
}

// recoverSessions replays the store's persisted sessions into the live
// table at boot, before the server handles a request. Every session the
// store hands back counts toward MSessRecovered; the ones that cannot
// be rebuilt (bad parameters, torn payload) or that find no table
// capacity are evicted — durably, so they do not fail every boot —
// under the recovered.* reason codes, which keeps the session
// accounting identity (created + recovered == evicted.* + active)
// closed.
func (s *Server) recoverSessions() {
	recovered, err := s.cfg.Store.Recover()
	if err != nil {
		s.o.Inc(MStoreErrors)
		return
	}
	now := s.clock()
	for _, rs := range recovered {
		s.o.Inc(MSessRecovered)
		loc, _ := s.localizerFor(rs.Meta)
		if err := s.sessions.insertRecovered(rs, loc, now); err != nil {
			reason := EvictRecoveredInvalid
			if errors.Is(err, errTableFull) {
				reason = EvictRecoveredCapacity
			}
			s.o.Inc(MSessEvictedPrefix + reason)
			if serr := s.cfg.Store.Evict(rs.ID, reason); serr != nil {
				s.o.Inc(MStoreErrors)
			}
		}
	}
}

// Handler returns the root handler (mount at /).
func (s *Server) Handler() http.Handler { return s.handler }

// BeginDrain starts graceful shutdown: readiness flips to 503, queued
// waiters are shed with 503, and no new work is admitted. Work already
// running is unaffected — the caller's http.Server.Shutdown waits for
// those handlers. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.pool.drain()
}

// FinishShutdown completes the drain after the HTTP listener has
// stopped: every remaining streaming session is evicted and the janitor
// exits. Call after http.Server.Shutdown returns.
func (s *Server) FinishShutdown() {
	s.BeginDrain()
	select {
	case <-s.janitorStop:
	default:
		close(s.janitorStop)
	}
	<-s.janitorDone
	s.sessions.shutdown()
}

func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			now := s.clock()
			s.sessions.sweepIdle(now)
			s.window.Tick(now)
		case <-s.janitorStop:
			return
		}
	}
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/locate", s.handleLocate)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/audio", s.handleSessionAudio)
	mux.HandleFunc("POST /v1/sessions/{id}/imu", s.handleSessionIMU)
	mux.HandleFunc("POST /v1/sessions/{id}/locate", s.handleSessionLocate)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slo", s.handleSLO)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// --- error / JSON plumbing ---

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON answers with status code and v as an indented JSON body. It
// encodes before it writes the status: a value json refuses (a NaN
// field) answers 500 with an error body, counted under MEncodeErrors,
// rather than the status with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.o.Inc(MEncodeErrors)
		code = http.StatusInternalServerError
		buf.Reset()
		enc.Encode(errorBody{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// reject tallies and writes a pre-admission client error.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, code int, msg string) {
	s.o.Inc(MReqRejected)
	setOutcome(r.Context(), outcomeRejected)
	s.writeJSON(w, code, errorBody{Error: msg})
}

// storeFailed writes a durable-write failure: the session's state did
// not change, the fault is server-side (disk, not input), so 500 with
// Retry-After — the client's bytes are fine to resend once the operator
// fixes the volume.
func (s *Server) storeFailed(w http.ResponseWriter, r *http.Request, err error) {
	setOutcome(r.Context(), outcomeFailed)
	w.Header().Set("Retry-After", "5")
	s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
}

// shed writes an admission refusal with Retry-After.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, errDraining) {
		s.o.Inc(MReqShedPrefix + "draining")
		setOutcome(r.Context(), outcomeShedPrefix+"draining")
		w.Header().Set("Retry-After", "5")
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	s.o.Inc(MReqShedPrefix + "queue_full")
	setOutcome(r.Context(), outcomeShedPrefix+"queue_full")
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusTooManyRequests, errorBody{Error: errQueueFull.Error()})
}

// readBody drains the (already size-limited) body into a buffer from
// sessionio's byte pool, mapping the over-limit error to 413. The buffer
// grows only as bytes arrive: a Content-Length claim reserves nothing,
// so a stalled connection holds what it sent, not what it announced. On
// success the caller owns the buffer until it hands it back with
// sessionio.RecycleBuffer (handlers defer that); nothing decoded from
// the bytes may alias them past that point — every decoder on these
// paths copies what it keeps.
//
//hyperearvet:pooled
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := sessionio.BorrowBuffer()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		sessionio.RecycleBuffer(buf)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", mbe.Limit))
		} else {
			s.reject(w, r, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return nil, false
	}
	return buf, true
}

// --- localizer cache ---

// pipelineFor returns a request's effective pipeline parameters: the
// server's pipeline defaults with any nonzero meta overrides applied.
func (s *Server) pipelineFor(meta sessionio.Meta) core.Config {
	cfg := s.cfg.Pipeline
	if meta.SampleRate > 0 {
		cfg.SampleRate = meta.SampleRate
	}
	if meta.MicSeparation > 0 {
		cfg.MicSeparation = meta.MicSeparation
	}
	if meta.ChirpLowHz > 0 {
		cfg.Source.Low = meta.ChirpLowHz
	}
	if meta.ChirpHighHz > 0 {
		cfg.Source.High = meta.ChirpHighHz
	}
	if meta.ChirpDurS > 0 {
		cfg.Source.Duration = meta.ChirpDurS
	}
	if meta.ChirpPeriodS > 0 {
		cfg.Source.Period = meta.ChirpPeriodS
	}
	return cfg
}

// localizerFor returns the shared Localizer for the request's effective
// parameters (pipelineFor).
func (s *Server) localizerFor(meta sessionio.Meta) (*core.Localizer, error) {
	cfg := s.pipelineFor(meta)
	key := locKey{src: cfg.Source, fs: cfg.SampleRate, micSep: cfg.MicSeparation}
	s.locMu.Lock()
	defer s.locMu.Unlock()
	s.locTick++
	if e, ok := s.locs[key]; ok {
		e.used = s.locTick
		return e.loc, nil
	}
	l, err := core.NewLocalizer(cfg)
	if err != nil {
		return nil, err
	}
	if len(s.locs) >= maxLocalizers {
		var lru locKey
		oldest := s.locTick
		for k, e := range s.locs {
			if e.used < oldest {
				lru, oldest = k, e.used
			}
		}
		delete(s.locs, lru)
	}
	s.locs[key] = &locEntry{loc: l, used: s.locTick}
	return l, nil
}

// --- locate responses ---

type diagJSON struct {
	Index  int    `json:"index"`
	Reason string `json:"reason"`
	Error  string `json:"error,omitempty"`
}

func diagsJSON(ds []core.SlideError) []diagJSON {
	out := make([]diagJSON, 0, len(ds))
	for _, d := range ds {
		j := diagJSON{Index: d.Index, Reason: d.Reason}
		if d.Err != nil {
			j.Error = d.Err.Error()
		}
		out = append(out, j)
	}
	return out
}

type locate2DResponse struct {
	Mode        string     `json:"mode"`
	Pos         geom.Vec2  `json:"pos"`
	L           float64    `json:"l"`
	Fixes       int        `json:"fixes"`
	Movements   int        `json:"movements"`
	Beacons     int        `json:"beacons"`
	SFOPPM      float64    `json:"sfoPPM"`
	Diagnostics []diagJSON `json:"diagnostics"`
}

type locate3DResponse struct {
	Mode          string     `json:"mode"`
	ProjectedDist float64    `json:"projectedDist"`
	ProjectedPos  geom.Vec2  `json:"projectedPos"`
	L1            float64    `json:"l1"`
	L2            float64    `json:"l2"`
	H             float64    `json:"h"`
	BetaRad       *float64   `json:"betaRad"` // null when β is undefined
	Fixes         [2]int     `json:"fixes"`
	Movements     int        `json:"movements"`
	Beacons       int        `json:"beacons"`
	SFOPPM        float64    `json:"sfoPPM"`
	Diagnostics   []diagJSON `json:"diagnostics"`
}

// runLocate admits, runs and renders one localization over a decoded
// bundle. mode is "2d" or "3d" (validated by the caller). loc is a
// streamed session's own Localizer; when nil (the batch path, or a
// session whose Localizer could not be built) the bundle's meta resolves
// one from the cache once admitted. pre holds a streamed session's
// envelope prefixes (zero on the batch path); the Localizer ignores any
// that its own feeds did not build.
func (s *Server) runLocate(w http.ResponseWriter, r *http.Request, b *sessionio.Bundle, mode string, loc *core.Localizer, pre [2]dsp.EnvelopePrefix) {
	release, err := s.pool.acquire(r.Context())
	if err != nil {
		if errors.Is(err, errQueueFull) || errors.Is(err, errDraining) {
			s.shed(w, r, err)
			return
		}
		// Client gave up while queued.
		s.o.Inc(MReqCanceled)
		setOutcome(r.Context(), outcomeCanceled)
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	defer release()
	s.o.Inc(MReqAdmitted)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	if loc == nil {
		if loc, err = s.localizerFor(b.Meta); err != nil {
			s.o.Inc(MReqCompleted)
			setOutcome(r.Context(), outcomeFailed)
			s.writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: "pipeline config: " + err.Error()})
			return
		}
	}

	switch mode {
	case "2d":
		res, err := loc.Locate2DStreamed(ctx, b.Recording, b.IMU, pre)
		if err != nil {
			s.writePipelineError(w, r, err)
			return
		}
		s.o.Inc(MReqCompleted)
		setOutcome(r.Context(), outcomeCompleted)
		s.writeJSON(w, http.StatusOK, locate2DResponse{
			Mode: "2d", Pos: res.Pos, L: res.L,
			Fixes: len(res.Fixes), Movements: len(res.Movements),
			Beacons: len(res.ASP.Beacons), SFOPPM: res.ASP.SFOPPM,
			Diagnostics: diagsJSON(res.Diagnostics),
		})
	case "3d":
		res, err := loc.Locate3DStreamed(ctx, b.Recording, b.IMU, pre)
		if err != nil {
			s.writePipelineError(w, r, err)
			return
		}
		// β is NaN when the stature triangle cannot exist; JSON has no
		// NaN, so it goes out as null.
		var beta *float64
		if !math.IsNaN(res.Beta) {
			beta = &res.Beta
		}
		s.o.Inc(MReqCompleted)
		setOutcome(r.Context(), outcomeCompleted)
		s.writeJSON(w, http.StatusOK, locate3DResponse{
			Mode: "3d", ProjectedDist: res.ProjectedDist, ProjectedPos: res.ProjectedPos,
			L1: res.L1, L2: res.L2, H: res.H, BetaRad: beta,
			Fixes:     [2]int{len(res.Fixes[0]), len(res.Fixes[1])},
			Movements: len(res.Movements),
			Beacons:   len(res.ASP.Beacons), SFOPPM: res.ASP.SFOPPM,
			Diagnostics: diagsJSON(res.Diagnostics),
		})
	}
}

// writePipelineError maps a pipeline failure: cancellations and
// deadlines are 503 (the work was shed mid-flight, safe to retry);
// everything else is 422 (the input ran the pipeline and produced no
// answer — retrying the same bytes will not help).
func (s *Server) writePipelineError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.o.Inc(MReqCanceled)
		setOutcome(r.Context(), outcomeCanceled)
		w.Header().Set("Retry-After", "5")
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	s.o.Inc(MReqCompleted)
	setOutcome(r.Context(), outcomeFailed)
	s.writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
}

func parseMode(r *http.Request) (string, error) {
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "2d"
	}
	if mode != "2d" && mode != "3d" {
		return "", fmt.Errorf("unknown mode %q (want 2d or 3d)", mode)
	}
	return mode, nil
}

// --- batch endpoint ---

// handleLocate is the batch path: one multipart bundle (audio WAV + IMU
// CSV + optional meta JSON) in, one localization out.
func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	mode, err := parseMode(r)
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, err.Error())
		return
	}
	mt, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/form-data" || params["boundary"] == "" {
		s.reject(w, r, http.StatusUnsupportedMediaType,
			"want multipart/form-data with parts audio (WAV), imu (CSV), meta (JSON)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer sessionio.RecycleBuffer(body)
	b, err := sessionio.ReadBundleMultipart(multipart.NewReader(bytes.NewReader(body.Bytes()), params["boundary"]))
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, "decoding bundle: "+err.Error())
		return
	}
	// The response is fully written inside runLocate and the pipeline
	// keeps nothing aliasing the recording, so the decoded sample buffers
	// go back to the sessionio pool on the way out.
	defer sessionio.RecycleBundle(b)
	s.runLocate(w, r, b, mode, nil, [2]dsp.EnvelopePrefix{})
}

// --- streaming session endpoints ---

type sessionCreateResponse struct {
	ID string `json:"id"`
}

// handleSessionCreate opens a streaming session. The optional JSON body
// is a sessionio.Meta; a beacon no detector can run at its rate is
// refused with 400. The Localizer its locate will run (resolved here,
// from the same cache, and kept by the session) supplies the envelope
// feeds and mic1's feedback detector.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.shed(w, r, errDraining)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer sessionio.RecycleBuffer(body)
	var meta sessionio.Meta
	if body.Len() > 0 {
		meta, ok = s.parseMetaBody(w, r, body.Bytes())
		if !ok {
			return
		}
	}
	cfg := s.pipelineFor(meta)
	// A meta the pipeline rejects still streams, without feeds or
	// feedback; its locate fails on the same error the batch path
	// reports.
	loc, _ := s.localizerFor(meta)
	sess, err := s.sessions.create(meta, cfg.Source, cfg.SampleRate, loc, s.clock())
	if err != nil {
		if errors.Is(err, errTableFull) {
			s.shed(w, r, errQueueFull)
			return
		}
		if errors.Is(err, errStoreFailed) {
			s.storeFailed(w, r, err)
			return
		}
		s.reject(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusCreated, sessionCreateResponse{ID: sess.id})
}

func (s *Server) parseMetaBody(w http.ResponseWriter, r *http.Request, raw []byte) (sessionio.Meta, bool) {
	meta, err := sessionio.ParseMeta(raw)
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, "meta: "+err.Error())
		return sessionio.Meta{}, false
	}
	return meta, true
}

func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		s.reject(w, r, http.StatusNotFound, err.Error())
		return nil, false
	}
	return sess, true
}

type detectionJSON struct {
	Time     float64 `json:"time"`
	Index    int     `json:"index"`
	Strength float64 `json:"strength"`
	SNR      float64 `json:"snr"`
}

type audioAppendResponse struct {
	Detections []detectionJSON `json:"detections"`
	Buffered   int             `json:"buffered"`
	Consumed   int             `json:"consumed"`
}

// handleSessionAudio appends an interleaved stereo int16 LE PCM chunk
// and returns mic1's beacon detections in the blocks it made final — the
// live feedback the client shows before the user starts sliding.
func (s *Server) handleSessionAudio(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer sessionio.RecycleBuffer(body)
	dets, buffered, consumed, err := sess.appendAudio(r.Context(), body.Bytes(), s.cfg.MaxSessionSamples, s.clock())
	if err != nil {
		if errors.Is(err, errStoreFailed) {
			s.storeFailed(w, r, err)
			return
		}
		code := http.StatusBadRequest
		if errors.Is(err, errSessionGone) {
			code = http.StatusNotFound
		} else if errors.Is(err, errSessionTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.reject(w, r, code, err.Error())
		return
	}
	resp := audioAppendResponse{Detections: make([]detectionJSON, 0, len(dets)), Buffered: buffered, Consumed: consumed}
	for _, d := range dets {
		resp.Detections = append(resp.Detections, detectionJSON{
			Time: d.Time, Index: d.Index, Strength: d.Strength, SNR: d.SNR,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSessionIMU attaches the session's IMU trace (the sessionio CSV
// format, `# fs=` preamble included).
func (s *Server) handleSessionIMU(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer sessionio.RecycleBuffer(body)
	tr, err := sessionio.ReadIMU(bytes.NewReader(body.Bytes()))
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, "imu: "+err.Error())
		return
	}
	if err := sess.setIMU(tr, body.Bytes(), s.clock()); err != nil {
		if errors.Is(err, errStoreFailed) {
			s.storeFailed(w, r, err)
			return
		}
		s.reject(w, r, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionLocate runs the full pipeline over everything the session
// has accumulated, through the same admission pool as the batch path, on
// the Localizer the session resolved at create. The PCM is decoded
// outside the session lock, and ASP runs only the matched-filter blocks
// the session's feeds have not (DESIGN.md §8, "Streamed sessions").
func (s *Server) handleSessionLocate(w http.ResponseWriter, r *http.Request) {
	mode, err := parseMode(r)
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, err.Error())
		return
	}
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	pcm, pre, tr, err := sess.snapshotLocate(s.clock())
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, errSessionGone) {
			code = http.StatusNotFound
		}
		s.reject(w, r, code, err.Error())
		return
	}
	mic1, mic2 := sessionio.DecodeStereo16(pcm)
	b := &sessionio.Bundle{Recording: &mic.Recording{Fs: sess.fs, Mic1: mic1, Mic2: mic2}, IMU: tr, Meta: sess.meta}
	defer sessionio.RecycleBundle(b)
	s.runLocate(w, r, b, mode, sess.loc, pre)
}

// handleSessionDelete evicts a session explicitly.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.evict(r.PathValue("id"), EvictExplicit) {
		s.reject(w, r, http.StatusNotFound, errSessionGone.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- metrics ---

// metricsJSON is the default /metrics body: the registry snapshot plus
// the rolling latency summaries the SLO window maintains.
type metricsJSON struct {
	obs.Snapshot
	// RollingSeconds is the wall clock the rolling summaries cover.
	RollingSeconds float64 `json:"rollingSeconds,omitempty"`
	// Rolling maps histogram names to their windowed p50/p95/p99.
	Rolling map[string]quantilesJSON `json:"rolling,omitempty"`
}

// handleMetrics renders the obs registry snapshot: JSON by default
// (snapshot plus rolling quantiles), Prometheus text exposition under
// ?format=prometheus or a scraper Accept header (see wantsPrometheus),
// and the human-readable table under ?format=text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.o == nil || s.o.Registry() == nil {
		s.writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	snap := s.o.Registry().Snapshot()
	if wantsPrometheus(r) {
		s.writePrometheus(w, snap)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.String())
		return
	}
	body := metricsJSON{Snapshot: snap}
	if s.window != nil {
		rolling, win := s.window.Rolling(s.clock())
		body.RollingSeconds = win.Seconds()
		body.Rolling = make(map[string]quantilesJSON, len(rolling))
		for name, h := range rolling {
			body.Rolling[name] = quantiles(h)
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

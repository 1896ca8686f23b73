// Command hyperearservd serves the HyperEar localization pipeline over
// HTTP: POST a recorded session bundle to /v1/locate, or stream audio
// chunk by chunk through /v1/sessions for live beacon-detection feedback
// before the final localization. See DESIGN.md "Service architecture"
// for the endpoint table, admission model and shutdown sequence.
//
// Usage:
//
//	hyperearservd [-addr :8787] [-phone s4|note3] [-workers N] [-queue N]
//	              [-timeout 30s] [-max-body 64MiB-as-bytes]
//	              [-session-idle 2m] [-max-sessions 64]
//	              [-data-dir /data] [-fsync always|none|100ms]
//	              [-trace out.jsonl] [-debug-addr :6060]
//	              [-access-log path|-] [-slo-target 1s] [-slo-objective 0.99]
//	              [-metrics-window 5m]
//
// The server sheds load instead of queueing unboundedly: past
// workers+queue admitted localizations, requests get 429 with
// Retry-After. SIGINT/SIGTERM triggers a graceful drain: readiness
// flips to 503, in-flight work finishes (bounded by -drain-timeout),
// then sessions are evicted and the trace sink is flushed.
//
// With -data-dir set, streaming sessions are durable: every mutation is
// appended to the session's own CRC-framed log under the directory
// (evicting a session deletes its log), and a restart on the same
// directory resumes every in-flight session — same ids, same
// accumulated audio, bit-identical localization. A directory written by
// the earlier shared-log layout (session.wal, snapshot.wal) is imported
// into per-session logs at boot. -fsync selects the append durability
// policy; the drain sequence flushes the logs before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyperear"
	"hyperear/internal/core"
	"hyperear/internal/obs"
	"hyperear/internal/server"
	"hyperear/internal/sessionstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hyperearservd:", err)
		os.Exit(1)
	}
}

// onListen, when non-nil, receives the bound listen address once the
// socket is open and signals are being handled — the hook the SIGTERM
// drain test synchronizes on.
var onListen func(addr net.Addr)

func run(args []string) error {
	fs := flag.NewFlagSet("hyperearservd", flag.ContinueOnError)
	addr := fs.String("addr", ":8787", "listen address")
	phoneName := fs.String("phone", "s4", "default phone profile: s4 or note3 (per-request meta may override geometry)")
	workers := fs.Int("workers", 0, "concurrent localizations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admitted-but-waiting requests beyond workers (0 = 2×workers)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request pipeline deadline")
	maxBody := fs.Int64("max-body", 64<<20, "max request body bytes")
	sessionIdle := fs.Duration("session-idle", 2*time.Minute, "evict streaming sessions idle this long")
	maxSessions := fs.Int("max-sessions", 64, "max live streaming sessions")
	dataDir := fs.String("data-dir", "", "persist streaming sessions to this directory (one append-only log per session); empty = in-memory only")
	fsyncPolicy := fs.String("fsync", "always", "session log fsync policy: always, none, or a flush interval like 100ms")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	trace := fs.String("trace", "", "write a JSONL stage-span trace to this file")
	debugAddr := fs.String("debug-addr", "", "serve pprof + expvar on this address (e.g. :6060)")
	accessLog := fs.String("access-log", "", "write one JSON line per request to this file (\"-\" for stdout)")
	sloTarget := fs.Duration("slo-target", 0, "per-request latency target for /debug/slo (0 = 1s)")
	sloObjective := fs.Float64("slo-objective", 0, "SLO attainment objective in (0,1] (0 = 0.99)")
	metricsWindow := fs.Duration("metrics-window", 0, "rolling latency window span (0 = 5m, negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if math.IsNaN(*sloObjective) || math.IsInf(*sloObjective, 0) || *sloObjective < 0 || *sloObjective > 1 {
		return fmt.Errorf("-slo-objective %v out of range (want 0 < o <= 1, or 0 for the default)", *sloObjective)
	}

	var phone hyperear.Phone
	switch *phoneName {
	case "s4":
		phone = hyperear.GalaxyS4()
	case "note3":
		phone = hyperear.GalaxyNote3()
	default:
		return fmt.Errorf("unknown -phone %q (want s4 or note3)", *phoneName)
	}

	reg := obs.NewRegistry()
	var sink obs.Sink
	var jsonl *obs.JSONLSink
	var traceFile *os.File
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		traceFile = f
		jsonl = obs.NewJSONLSink(f)
		sink = jsonl
	}
	o := obs.New(sink, reg)

	var accessWriter io.Writer
	var accessFile *os.File
	switch *accessLog {
	case "":
	case "-":
		accessWriter = os.Stdout
	default:
		f, err := os.Create(*accessLog)
		if err != nil {
			return err
		}
		accessFile = f
		accessWriter = f
	}

	// The store opens (and recovers) before the server constructs, so
	// New's boot-time replay sees every persisted session; a store that
	// cannot open is fatal rather than silently non-durable.
	var store *sessionstore.FileStore
	if *dataDir != "" {
		policy, interval, err := sessionstore.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		store, err = sessionstore.Open(*dataDir, sessionstore.Options{
			Fsync:         policy,
			FsyncInterval: interval,
			Obs:           o,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hyperearservd: session store in %s (fsync %s)\n", *dataDir, policy)
	}

	pipeCfg := core.DefaultConfig(hyperear.DefaultBeacon(), phone.SampleRate, phone.MicSeparation)
	pipeCfg.Obs = o
	srvCfg := server.Config{
		Workers:            *workers,
		Queue:              *queue,
		RequestTimeout:     *timeout,
		MaxBodyBytes:       *maxBody,
		SessionIdleTimeout: *sessionIdle,
		MaxSessions:        *maxSessions,
		MetricsWindow:      *metricsWindow,
		SLOTarget:          *sloTarget,
		SLOObjective:       *sloObjective,
		AccessLog:          accessWriter,
		Pipeline:           pipeCfg,
		Obs:                o,
	}
	if store != nil {
		// Assigned only when non-nil so a disabled store stays a nil
		// interface, not a typed-nil *FileStore.
		srvCfg.Store = store
	}
	srv := server.New(srvCfg)

	if *debugAddr != "" {
		reg.PublishExpvar("hyperear")
		dbg, bound, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "hyperearservd: debug (pprof, expvar) on %s\n", bound)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hyperearservd: listening on %s\n", ln.Addr())
	if onListen != nil {
		onListen(ln.Addr())
	}

	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain sequence: stop admitting (readyz 503, queued waiters shed),
	// let in-flight handlers finish within the drain budget, then evict
	// the remaining sessions and flush the session logs and trace sink.
	// Shutdown evictions are deliberately not persisted — the sessions
	// stay in the store so the next boot on the same -data-dir resumes
	// them.
	fmt.Fprintln(os.Stderr, "hyperearservd: draining")
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = hs.Shutdown(dctx)
	srv.FinishShutdown()
	if store != nil {
		if werr := store.Flush(); werr != nil && err == nil {
			err = werr
		}
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if jsonl != nil {
		// The sink swallows write errors per event to keep span emission
		// non-blocking; surface the sticky first error at shutdown so a
		// full disk does not silently produce a truncated trace.
		if werr := jsonl.Err(); werr != nil {
			fmt.Fprintln(os.Stderr, "hyperearservd: trace write:", werr)
		}
	}
	if traceFile != nil {
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
	}
	if accessFile != nil {
		if cerr := accessFile.Close(); err == nil {
			err = cerr
		}
	}
	fmt.Fprintf(os.Stderr, "hyperearservd: stopped\n%s", reg.Snapshot().String())
	return err
}

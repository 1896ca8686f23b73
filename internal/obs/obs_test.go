package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestDisabledObsIsFree pins the package's core invariant: a nil *Obs
// (the default configuration) allocates nothing on any hook.
func TestDisabledObsIsFree(t *testing.T) {
	var o *Obs
	ctx := ContextWithTrace(context.Background(), TraceContext{
		TraceID: "t", SpanID: "s",
	})
	allocs := testing.AllocsPerRun(100, func() {
		sp := o.Span("asp")
		sp.Attr("dist", 7.25)
		sp.AttrInt("beacons", 3)
		sp.AttrStr("reason", "none")
		sp.End()
		csp := o.SpanCtx(ctx, "msp")
		csp.AttrInt("n", 1)
		csp.End()
		rsp := o.RequestSpan("server.request", TraceContext{TraceID: "t", SpanID: "s"})
		rsp.End()
		o.Inc("pipeline.slide.accepted")
		o.Add("asp.detections", 12)
		o.Observe("pde.drift", 0.003)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %.1f times per run, want 0", allocs)
	}
	if o.Registry() != nil {
		t.Fatal("nil Obs should report a nil registry")
	}
}

func TestNewNilBothStaysNil(t *testing.T) {
	if o := New(nil, nil); o != nil {
		t.Fatalf("New(nil, nil) = %v, want nil", o)
	}
}

func TestSpanEmitsEventAndDuration(t *testing.T) {
	sink := &MemSink{}
	reg := NewRegistry()
	o := New(sink, reg)

	sp := o.Span("asp")
	sp.AttrInt("beacons", 3)
	sp.Attr("sfo_ppm", 19.5)
	time.Sleep(time.Millisecond)
	sp.End()
	sp.End() // idempotent: must not double-emit

	evs := sink.Events()
	if len(evs) != 1 {
		t.Fatalf("emitted %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Stage != "asp" {
		t.Fatalf("stage = %q", e.Stage)
	}
	if e.DurNS <= 0 {
		t.Fatalf("duration = %d ns, want > 0", e.DurNS)
	}
	if len(e.Attrs) != 2 || e.Attrs[0].Key != "beacons" || e.Attrs[1].Key != "sfo_ppm" {
		t.Fatalf("attrs = %+v", e.Attrs)
	}
	hs, ok := reg.Snapshot().Histograms["span.asp"]
	if !ok || hs.Count != 1 {
		t.Fatalf("span duration histogram = %+v, ok=%v", hs, ok)
	}
	if hs.Sum <= 0 {
		t.Fatalf("span duration sum = %g s, want > 0", hs.Sum)
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	reg := NewRegistry()
	reg.Add("a", 1)
	reg.Add("a", 4)
	reg.Add("b.x", 2)
	reg.Add("b.y", 3)
	reg.Observe("h", 0.02)
	reg.Observe("h", 5)
	reg.Observe("h", 1e6) // overflow bucket

	if got := reg.Get("a"); got != 5 {
		t.Fatalf("a = %d, want 5", got)
	}
	if got := reg.Get("missing"); got != 0 {
		t.Fatalf("missing = %d, want 0", got)
	}
	s := reg.Snapshot()
	if got := s.SumPrefix("b."); got != 5 {
		t.Fatalf("SumPrefix(b.) = %d, want 5", got)
	}
	h := s.Histograms["h"]
	if h.Count != 3 {
		t.Fatalf("h count = %d, want 3", h.Count)
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1 (counts %v)", h.Counts[len(h.Counts)-1], h.Counts)
	}
	wantSum := 0.02 + 5 + 1e6
	if h.Sum != wantSum {
		t.Fatalf("h sum = %g, want %g", h.Sum, wantSum)
	}
	if s.String() == "" {
		t.Fatal("snapshot table should not be empty")
	}
}

// TestConcurrentRegistry hammers counters, histograms, spans, and
// snapshots from many goroutines; `make obs-check` runs it under the
// race detector.
func TestConcurrentRegistry(t *testing.T) {
	sink := &MemSink{}
	reg := NewRegistry()
	o := New(sink, reg)

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				o.Inc("shared")
				o.Add(fmt.Sprintf("per.%d", w%3), 2)
				o.Observe("vals", float64(i)*1e-3)
				sp := o.Span("stage")
				sp.AttrInt("i", i)
				sp.End()
				if i%32 == 0 {
					_ = reg.Snapshot() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()

	s := reg.Snapshot()
	if got := s.Counters["shared"]; got != workers*iters {
		t.Fatalf("shared = %d, want %d", got, workers*iters)
	}
	if got := s.SumPrefix("per."); got != workers*iters*2 {
		t.Fatalf("per.* total = %d, want %d", got, workers*iters*2)
	}
	if got := s.Histograms["vals"].Count; got != workers*iters {
		t.Fatalf("vals count = %d, want %d", got, workers*iters)
	}
	if got := s.Histograms["span.stage"].Count; got != workers*iters {
		t.Fatalf("span.stage count = %d, want %d", got, workers*iters)
	}
	if got := len(sink.Events()); got != workers*iters {
		t.Fatalf("sink events = %d, want %d", got, workers*iters)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := New(sink, nil)
	for i := 0; i < 3; i++ {
		sp := o.Span("msp")
		sp.AttrInt("segments", i)
		sp.End()
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if e.Stage != "msp" || e.DurNS < 0 {
			t.Fatalf("line %d: %+v", lines, e)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("trace has %d lines, want 3", lines)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(failWriter{})
	sink.Emit(Event{Stage: "asp"})
	sink.Emit(Event{Stage: "msp"}) // must not panic or reset the error
	if err := sink.Err(); err == nil {
		t.Fatal("expected a sticky write error")
	}
}

// TestPublishExpvarRepublish verifies a name can be republished (expvar
// itself panics on duplicate Publish) and that the export follows the
// newest registry.
func TestPublishExpvarRepublish(t *testing.T) {
	r1 := NewRegistry()
	r1.Add("x", 1)
	r1.PublishExpvar("obs_test_registry")
	r2 := NewRegistry()
	r2.Add("x", 2)
	r2.PublishExpvar("obs_test_registry") // must not panic
	r2.PublishExpvar("obs_test_registry_other")
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Add("pipeline.slide.accepted", 4)
	reg.PublishExpvar("obs_test_serve")

	srv, addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	raw, ok := vars["obs_test_serve"]
	if !ok {
		t.Fatal("published registry missing from /debug/vars")
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if snap.Counters["pipeline.slide.accepted"] != 4 {
		t.Fatalf("exported counters = %v", snap.Counters)
	}
}

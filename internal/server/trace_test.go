package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperear/internal/core"
	"hyperear/internal/obs"
)

// newTracedServer is newTestServer with a MemSink attached, for tests
// asserting on emitted spans.
func newTracedServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server, *obs.MemSink, *obs.Registry) {
	t.Helper()
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemSink{}
	reg := obs.NewRegistry()
	o := obs.New(sink, reg)
	pipe := core.DefaultConfig(s.Scenario.Source, s.Scenario.Phone.SampleRate, s.Scenario.Phone.MicSeparation)
	pipe.Obs = o
	cfg := Config{
		Workers:  2,
		Queue:    2,
		Pipeline: pipe,
		Obs:      o,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.BeginDrain()
		srv.FinishShutdown()
	})
	return srv, ts, sink, reg
}

// TestTracePropagationLocate drives one batch localization and asserts
// every span the pipeline emitted carries the request's trace ID (as
// echoed in X-Request-Id), with the server.request root span as the
// stage spans' parent.
func TestTracePropagationLocate(t *testing.T) {
	_, ts, sink, _ := newTracedServer(t, nil)
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	trace := resp.Header.Get("X-Request-Id")
	if trace == "" {
		t.Fatal("response missing X-Request-Id")
	}

	evs := sink.Events()
	if len(evs) == 0 {
		t.Fatal("no spans emitted")
	}
	var root *obs.Event
	for i := range evs {
		if evs[i].Stage == "server.request" {
			root = &evs[i]
		}
	}
	if root == nil {
		var names []string
		for _, e := range evs {
			names = append(names, e.Stage)
		}
		t.Fatalf("no server.request root span among %v", names)
	}
	if root.TraceID != trace {
		t.Errorf("root TraceID = %q, want header's %q", root.TraceID, trace)
	}
	if root.SpanID == "" || root.ParentID != "" {
		t.Errorf("root span IDs = (%q, parent %q), want (non-empty, empty)", root.SpanID, root.ParentID)
	}
	wantStages := map[string]bool{"asp": false, "msp": false, "pde": false, "ttl": false, "locate2d": false}
	for _, ev := range evs {
		if ev.TraceID != trace {
			t.Errorf("span %q TraceID = %q, want %q", ev.Stage, ev.TraceID, trace)
		}
		if ev.Stage == "server.request" {
			continue
		}
		if ev.ParentID != root.SpanID {
			t.Errorf("span %q ParentID = %q, want root %q", ev.Stage, ev.ParentID, root.SpanID)
		}
		if ev.SpanID == "" || ev.SpanID == root.SpanID {
			t.Errorf("span %q SpanID = %q, want fresh non-root ID", ev.Stage, ev.SpanID)
		}
		if _, ok := wantStages[ev.Stage]; ok {
			wantStages[ev.Stage] = true
		}
	}
	for stage, seen := range wantStages {
		if !seen {
			t.Errorf("stage %q emitted no span", stage)
		}
	}
}

// TestRequestIDReuse checks a well-formed inbound X-Request-Id is kept
// (retrying clients keep one ID across attempts) and a hostile one is
// replaced.
func TestRequestIDReuse(t *testing.T) {
	_, ts, sink, _ := newTracedServer(t, nil)

	req := bundleRequest(t, ts.URL+"/v1/locate")
	req.Header.Set("X-Request-Id", "client-id-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-42" {
		t.Errorf("echoed id = %q, want client-id-42", got)
	}
	for _, ev := range sink.Events() {
		if ev.TraceID != "client-id-42" {
			t.Errorf("span %q TraceID = %q, want client-id-42", ev.Stage, ev.TraceID)
		}
	}

	req = bundleRequest(t, ts.URL+"/v1/locate")
	req.Header.Set("X-Request-Id", "evil\"id with spaces")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" || strings.ContainsAny(got, " \"") {
		t.Errorf("hostile inbound id must be replaced, got %q", got)
	}
}

// TestTracePropagationStreaming checks the streaming-ingest path: audio
// pushed into a session emits detector spans tagged with that request's
// trace ID.
func TestTracePropagationStreaming(t *testing.T) {
	_, ts, sink, reg := newTracedServer(t, nil)
	sess, err := testSession()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	created := decodeJSON[sessionCreateResponse](t, resp.Body)
	resp.Body.Close()

	chunk := pcmChunk(sess.Recording.Mic1, sess.Recording.Mic2)
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+created.ID+"/audio", bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "stream-req-1")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audio push status = %d, want 200", resp.StatusCode)
	}

	var pushSpans int
	for _, ev := range sink.Events() {
		if ev.Stage != "chirp.stream.push" {
			continue
		}
		pushSpans++
		if ev.TraceID != "stream-req-1" {
			t.Errorf("push span TraceID = %q, want stream-req-1", ev.TraceID)
		}
		if ev.ParentID == "" {
			t.Error("push span has no parent (request root expected)")
		}
	}
	if pushSpans == 0 {
		t.Fatal("no chirp.stream.push spans emitted for a full-session chunk")
	}
	if got := reg.Snapshot().Counters["chirp.stream.emitted"]; got == 0 {
		t.Error("stream detector counters not wired into the server registry")
	}
}

// TestAccessLog checks the structured access log: one JSON line per
// request carrying the trace ID, route, status, outcome, duration and
// byte counts.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	_, ts, _, _ := newTracedServer(t, func(c *Config) { c.AccessLog = logW })

	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	trace := resp.Header.Get("X-Request-Id")

	// The line is written after the handler returns; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var lines []string
	for time.Now().Before(deadline) {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Count(s, "\n") >= 1 {
			sc := bufio.NewScanner(strings.NewReader(s))
			for sc.Scan() {
				lines = append(lines, sc.Text())
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(lines) == 0 {
		t.Fatal("no access-log line written")
	}
	var entry accessEntry
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access line is not JSON: %v\n%s", err, lines[0])
	}
	if entry.Trace != trace {
		t.Errorf("logged trace = %q, want %q", entry.Trace, trace)
	}
	if entry.Route != "POST /v1/locate" {
		t.Errorf("route = %q, want POST /v1/locate", entry.Route)
	}
	if entry.Status != http.StatusOK {
		t.Errorf("status = %d, want 200", entry.Status)
	}
	if entry.Outcome != outcomeCompleted {
		t.Errorf("outcome = %q, want %q", entry.Outcome, outcomeCompleted)
	}
	if entry.DurMS <= 0 {
		t.Errorf("durMs = %v, want > 0", entry.DurMS)
	}
	if entry.BytesIn <= 0 || entry.BytesOut <= 0 {
		t.Errorf("bytes in/out = %d/%d, want both > 0", entry.BytesIn, entry.BytesOut)
	}
	if t.Failed() {
		t.Logf("access line: %s", lines[0])
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestAccessLogOutcomeShed checks the admission outcome lands in the
// log for refused requests too.
func TestAccessLogOutcomeShed(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	srv, ts, _, _ := newTracedServer(t, func(c *Config) { c.AccessLog = logW })
	srv.BeginDrain()

	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "\n") {
			var entry accessEntry
			if err := json.Unmarshal([]byte(s[:strings.IndexByte(s, '\n')]), &entry); err != nil {
				t.Fatal(err)
			}
			if entry.Outcome != outcomeShedPrefix+"draining" {
				t.Errorf("outcome = %q, want shed:draining", entry.Outcome)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no access-log line written")
}

// TestMetricsPrometheus checks /metrics speaks Prometheus text format
// under both the query parameter and scraper content negotiation, and
// that the output parses line by line.
func TestMetricsPrometheus(t *testing.T) {
	srv, ts, _, _ := newTracedServer(t, nil)
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.TickWindow(time.Now())

	resp, err = ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want the 0.0.4 exposition type", ct)
	}
	body := decodeBody(t, resp)
	checkPromLines(t, body)
	for _, want := range []string{
		"# TYPE hyperear_server_requests_admitted_total counter\n",
		"hyperear_server_requests_admitted_total 1\n",
		"# TYPE hyperear_span_locate2d histogram\n",
		"hyperear_span_locate2d_bucket{le=\"+Inf\"} 1\n",
		"# TYPE hyperear_go_goroutines gauge\n",
		"# TYPE hyperear_rolling_server_request_duration summary\n",
		"hyperear_rolling_server_request_duration{quantile=\"0.99\"} ",
		"hyperear_server_queue_depth ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Scraper-style Accept header negotiates the same format.
	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("negotiated content type = %q, want exposition format", ct)
	}
}

func decodeBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkPromLines is a line-grammar check over a full exposition body:
// every line is a TYPE comment or `series value`.
func checkPromLines(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Error("empty exposition line")
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "TYPE" {
				t.Errorf("malformed comment %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Errorf("sample %q has no value", line)
			continue
		}
		if v := line[sp+1:]; v != "+Inf" && v != "-Inf" && v != "NaN" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Errorf("sample %q: unparsable value: %v", line, err)
			}
		}
	}
}

// TestMetricsJSONRolling checks the default JSON body now carries the
// rolling quantiles next to the raw snapshot.
func TestMetricsJSONRolling(t *testing.T) {
	srv, ts, _, _ := newTracedServer(t, nil)
	srv.TickWindow(time.Now().Add(-30 * time.Second))
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := decodeJSON[struct {
		Counters       map[string]uint64        `json:"counters"`
		RollingSeconds float64                  `json:"rollingSeconds"`
		Rolling        map[string]quantilesJSON `json:"rolling"`
	}](t, resp.Body)
	if body.Counters[MReqAdmitted] != 1 {
		t.Errorf("admitted = %d, want 1", body.Counters[MReqAdmitted])
	}
	if body.RollingSeconds <= 0 {
		t.Errorf("rollingSeconds = %v, want > 0", body.RollingSeconds)
	}
	q, ok := body.Rolling[MReqDuration]
	if !ok {
		t.Fatalf("rolling missing %q (have %v)", MReqDuration, body.Rolling)
	}
	if q.Count != 1 || q.P99 <= 0 {
		t.Errorf("rolling request quantiles = %+v, want count 1 and positive p99", q)
	}
}

// TestDebugSLO checks the /debug/slo endpoint: attainment over the
// rolling window against the configured target, with per-stage
// quantiles.
func TestDebugSLO(t *testing.T) {
	srv, ts, _, _ := newTracedServer(t, func(c *Config) {
		c.SLOTarget = 30 * time.Second // generous: the test request must attain it
		c.SLOObjective = 0.95
	})
	srv.TickWindow(time.Now().Add(-time.Minute))
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	slo := decodeJSON[sloResponse](t, resp.Body)
	if !approxf(slo.TargetSeconds, 30, 1e-9) {
		t.Errorf("targetSeconds = %v, want 30", slo.TargetSeconds)
	}
	if !approxf(slo.Objective, 0.95, 1e-9) {
		t.Errorf("objective = %v, want 0.95", slo.Objective)
	}
	if slo.Requests < 1 {
		t.Errorf("requests = %d, want >= 1", slo.Requests)
	}
	if slo.Attainment < 0 || slo.Attainment > 1 {
		t.Errorf("attainment = %v, out of [0,1]", slo.Attainment)
	}
	// The 30s target dwarfs any test-box latency: full attainment, no
	// budget burned.
	if !approxf(slo.Attainment, 1, 1e-9) {
		t.Errorf("attainment = %v, want 1 under a 30s target", slo.Attainment)
	}
	if slo.ErrorBudgetBurn > 1e-9 {
		t.Errorf("errorBudgetBurn = %v, want 0", slo.ErrorBudgetBurn)
	}
	if slo.WindowSeconds <= 0 {
		t.Errorf("windowSeconds = %v, want > 0", slo.WindowSeconds)
	}
	if slo.Request.P50 <= 0 || slo.Request.P99 < slo.Request.P50 {
		t.Errorf("request quantiles inconsistent: %+v", slo.Request)
	}
	for _, stage := range []string{"locate2d", "asp"} {
		if _, ok := slo.Stages[stage]; !ok {
			t.Errorf("stages missing %q (have %v)", stage, slo.Stages)
		}
	}
}

func approxf(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

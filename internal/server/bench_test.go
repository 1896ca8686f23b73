package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sessionio"
	"hyperear/internal/sim"
)

// BenchmarkServerThroughput drives concurrent multipart /v1/locate
// requests through the full service stack — admission pool, localizer
// cache, pipeline — and reports locates/sec. Run with -cpu 1,2 to see
// throughput scale with cores: the default worker pool admits GOMAXPROCS
// localizations at once, each detecting its two channels concurrently.
func BenchmarkServerThroughput(b *testing.B) {
	bd, err := testBundle()
	if err != nil {
		b.Fatal(err)
	}
	sess, err := testSession()
	if err != nil {
		b.Fatal(err)
	}
	pipe := core.DefaultConfig(sess.Scenario.Source, sess.Scenario.Phone.SampleRate, sess.Scenario.Phone.MicSeparation)
	srv := New(Config{
		// Queue past the bench's in-flight request count so nothing is
		// shed with 429 — this benchmark measures throughput, not
		// admission control.
		Queue:    256,
		Pipeline: pipe,
	})
	defer srv.FinishShutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// One warm-up request so template rendering, FFT plans, and scratch
	// pools are paid before the timer starts.
	doLocate(b, client, ts.URL, bd.body, bd.contentType)

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			doLocate(b, client, ts.URL, bd.body, bd.contentType)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "locates/s")
}

// BenchmarkReadBundleMultipart is the decode row of the stage ledger:
// the shared session's /v1/locate body (WAV, IMU CSV and meta parts)
// parsed and decoded as handleLocate does, the decoded sample buffers
// handed back to their pool after each op.
func BenchmarkReadBundleMultipart(b *testing.B) {
	bd, err := testBundle()
	if err != nil {
		b.Fatal(err)
	}
	_, params, err := mime.ParseMediaType(bd.contentType)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bd.body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle, err := sessionio.ReadBundleMultipart(multipart.NewReader(bytes.NewReader(bd.body), params["boundary"]))
		if err != nil {
			b.Fatal(err)
		}
		sessionio.RecycleBundle(bundle)
	}
}

// benchSession lazily renders the root package's benchScenario (its
// bench_test.go): the 5-slide session the stage-ledger rows share.
var benchSession = sync.OnceValues(func() (*sim.Session, error) {
	return sim.Run(sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          mic.GalaxyS4(),
		Source:         chirp.Default(),
		SpeakerPos:     geom.Vec3{X: 9, Y: 6, Z: 1.2},
		SpeakerSkewPPM: 20,
		PhoneStart:     geom.Vec3{X: 4, Y: 6, Z: 1.2},
		Protocol:       sim.DefaultProtocol(),
		IMU:            imu.DefaultConfig(),
		Noise:          room.WhiteNoise{},
		SNRdB:          15,
		Seed:           12,
	})
})

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// BenchmarkEncodeResponse is the response-encode row of the stage ledger:
// the 5-slide bench session's Locate2D result rendered as the /v1/locate
// body and JSON-encoded as a locate answers it.
func BenchmarkEncodeResponse(b *testing.B) {
	sess, err := benchSession()
	if err != nil {
		b.Fatal(err)
	}
	phone := sess.Scenario.Phone
	loc, err := core.NewLocalizer(core.DefaultConfig(sess.Scenario.Source, phone.SampleRate, phone.MicSeparation))
	if err != nil {
		b.Fatal(err)
	}
	res, err := loc.Locate2D(sess.Recording, sess.IMU)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})
	defer srv.FinishShutdown()
	w := discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.writeJSON(w, http.StatusOK, response2D(res))
	}
}

func doLocate(b *testing.B, client *http.Client, base string, body []byte, contentType string) {
	b.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/locate?mode=2d", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("locate returned %d", resp.StatusCode)
	}
}

// BenchmarkSessionLocate times a streamed session's locate alone: the
// shared session is streamed through the handler in 4096-frame chunks
// and its IMU trace attached, untimed, then each iteration is one POST
// /v1/sessions/{id}/locate. It drives the HTTP API only, so it times the
// same request whatever the session keeps between chunks.
func BenchmarkSessionLocate(b *testing.B) {
	sess, err := testSession()
	if err != nil {
		b.Fatal(err)
	}
	phone := sess.Scenario.Phone
	srv := New(Config{Workers: 1, Pipeline: core.DefaultConfig(sess.Scenario.Source, phone.SampleRate, phone.MicSeparation)})
	defer srv.FinishShutdown()
	h := srv.Handler()
	serve := func(path string, body []byte, want int) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rr.Code != want {
			b.Fatalf("POST %s: status %d, want %d: %s", path, rr.Code, want, rr.Body)
		}
		return rr
	}
	meta := fmt.Sprintf(`{"sampleRateHz":%g,"micSeparationM":%g}`, phone.SampleRate, phone.MicSeparation)
	var created sessionCreateResponse
	if err := json.NewDecoder(serve("/v1/sessions", []byte(meta), http.StatusCreated).Body).Decode(&created); err != nil {
		b.Fatal(err)
	}
	base := "/v1/sessions/" + created.ID
	m1, m2 := sess.Recording.Mic1, sess.Recording.Mic2
	for at := 0; at < len(m1); at += 4096 {
		end := min(at+4096, len(m1))
		serve(base+"/audio", pcmChunk(m1[at:end], m2[at:end]), http.StatusOK)
	}
	var csv bytes.Buffer
	if err := sessionio.WriteIMU(&csv, sess.IMU); err != nil {
		b.Fatal(err)
	}
	serve(base+"/imu", csv.Bytes(), http.StatusNoContent)
	serve(base+"/locate", nil, http.StatusOK) // warm pools and plans

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(base+"/locate", nil, http.StatusOK)
	}
}

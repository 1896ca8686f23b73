package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/obs"
	"hyperear/internal/room"
	"hyperear/internal/sessionio"
	"hyperear/internal/sessionstore"
	"hyperear/internal/sim"
)

// testSession lazily renders one small session shared by every test in
// the package (rendering and the pipeline dominate test time; two slides
// keep both short while still producing fixes).
var testSession = sync.OnceValues(func() (*sim.Session, error) {
	return sim.Run(testScenario())
})

// testScenario is the shared session's scenario.
func testScenario() sim.Scenario {
	return sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          mic.GalaxyS4(),
		Source:         chirp.Default(),
		SpeakerPos:     geom.Vec3{X: 8, Y: 6, Z: 1.2},
		SpeakerSkewPPM: 25,
		PhoneStart:     geom.Vec3{X: 4, Y: 6, Z: 1.2},
		Protocol: sim.Protocol{
			SlideDist: 0.55,
			SlideDur:  1.0,
			HoldDur:   0.45,
			Slides:    2,
			Mode:      sim.ModeRuler,
		},
		IMU:   imu.DefaultConfig(),
		Noise: room.WhiteNoise{},
		SNRdB: 18,
		Seed:  7,
	}
}

// testBundle lazily serializes the shared session as a multipart body.
var testBundle = sync.OnceValues(func() (encodedBundle, error) {
	s, err := testSession()
	if err != nil {
		return encodedBundle{}, err
	}
	return encodeBundle(s)
})

// encodedBundle is a /v1/locate multipart body and its content type.
type encodedBundle struct {
	body        []byte
	contentType string
}

// encodeBundle serializes a simulated session as a /v1/locate multipart
// body: the recording as WAV, the IMU trace as CSV, and the phone's meta.
func encodeBundle(s *sim.Session) (encodedBundle, error) {
	return encodeBundleMeta(s, sessionio.Meta{
		PhoneName:     s.Scenario.Phone.Name,
		MicSeparation: s.Scenario.Phone.MicSeparation,
		SampleRate:    s.Scenario.Phone.SampleRate,
	})
}

// encodeBundleMeta is encodeBundle with meta, any JSON value, as the
// meta part.
func encodeBundleMeta(s *sim.Session, meta any) (encodedBundle, error) {
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	aw, err := w.CreateFormFile(sessionio.PartAudio, "audio.wav")
	if err != nil {
		return encodedBundle{}, err
	}
	if err := sessionio.WriteRecording(aw, s.Recording); err != nil {
		return encodedBundle{}, err
	}
	iw, err := w.CreateFormFile(sessionio.PartIMU, "imu.csv")
	if err != nil {
		return encodedBundle{}, err
	}
	if err := sessionio.WriteIMU(iw, s.IMU); err != nil {
		return encodedBundle{}, err
	}
	mw, err := w.CreateFormFile(sessionio.PartMeta, "meta.json")
	if err != nil {
		return encodedBundle{}, err
	}
	if err := json.NewEncoder(mw).Encode(meta); err != nil {
		return encodedBundle{}, err
	}
	if err := w.Close(); err != nil {
		return encodedBundle{}, err
	}
	return encodedBundle{body: buf.Bytes(), contentType: w.FormDataContentType()}, nil
}

func bundleRequest(t *testing.T, url string) *http.Request {
	t.Helper()
	b, err := testBundle()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b.body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", b.contentType)
	return req
}

// newTestServer builds a Server over the shared session's phone profile.
// mod (optional) tweaks the normalized-input config before New.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
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
	return srv, ts, reg
}

func decodeJSON[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLocate2D(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	res := decodeJSON[locate2DResponse](t, resp.Body)
	if res.Mode != "2d" || res.Fixes == 0 || res.Beacons == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Pos.X <= 0 {
		t.Errorf("speaker should be in front of the phone, got pos %+v", res.Pos)
	}
	if got := reg.Get(MReqAdmitted); got != 1 {
		t.Errorf("admitted = %d, want 1", got)
	}
	if got := reg.Get(MReqCompleted); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// undefinedBetaScenario is trial 7 of Fig. 17 at 1 m under -trials 12
// -seed 1 (fig17Trial(7)), a hand-mode session whose stature triangle
// cannot exist.
func undefinedBetaScenario() sim.Scenario {
	return sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          mic.GalaxyS4(),
		Source:         chirp.Default(),
		SpeakerPos:     geom.Vec3{X: 9.084889695048695, Y: 7.8380087866271735, Z: 0.5},
		SpeakerSkewPPM: -8.680218100144089,
		PhoneStart:     geom.Vec3{X: 8.350122209685752, Y: 8.516327843158404, Z: 1.0503319120466246},
		Protocol: sim.Protocol{
			SlideDist:     0.55,
			SlideDur:      1.0,
			HoldDur:       0.45,
			Slides:        10,
			Mode:          sim.ModeHand,
			StatureChange: 0.4197494144047273,
		},
		IMU:   imu.DefaultConfig(),
		Noise: room.WhiteNoise{},
		SNRdB: 15,
		Seed:  359074445092262394,
	}
}

// TestLocate3DUndefinedBeta: a hand-mode session whose stature triangle
// cannot exist still answers 200 with a body that decodes, β as null.
func TestLocate3DUndefinedBeta(t *testing.T) {
	s, err := sim.Run(undefinedBetaScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeBundle(s)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Post(ts.URL+"/v1/locate?mode=3d", b.contentType, bytes.NewReader(b.body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res locate3DResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("body does not decode: %v\n%s", err, body)
	}
	if res.Mode != "3d" || res.BetaRad != nil {
		t.Fatalf("want mode 3d with betaRad null, got %s", body)
	}
}

// fig17Trial rebuilds trial i of Fig. 17 at 1 m under `hyperearsim
// -trials 12 -seed 1`: the condition's seed is 1 + 53·1, and trial i
// draws from rand.NewSource(54 + 7919·i) in the experiment harness's
// order — phone height, stature change, the room placement, the
// speaker's clock skew, the render seed.
func fig17Trial(i int) sim.Scenario {
	rng := rand.New(rand.NewSource(54 + 7919*int64(i)))
	env := room.MeetingRoom()
	phoneZ := 1.0 + 0.4*rng.Float64()
	stature := 0.35 + 0.15*rng.Float64()
	const dist, margin = 1.0, 1.0
	var phone, speaker geom.Vec3
	for {
		px := margin + rng.Float64()*(env.Size.X-2*margin)
		py := margin + rng.Float64()*(env.Size.Y-2*margin)
		theta := rng.Float64() * 2 * math.Pi
		sx, sy := px+dist*math.Cos(theta), py+dist*math.Sin(theta)
		if sx >= margin && sx <= env.Size.X-margin && sy >= margin && sy <= env.Size.Y-margin {
			phone, speaker = geom.Vec3{X: px, Y: py, Z: phoneZ}, geom.Vec3{X: sx, Y: sy, Z: 0.5}
			break
		}
	}
	skew := -30 + 60*rng.Float64()
	return sim.Scenario{
		Env:            env,
		Phone:          mic.GalaxyS4(),
		Source:         chirp.Default(),
		SpeakerPos:     speaker,
		SpeakerSkewPPM: skew,
		PhoneStart:     phone,
		Protocol: sim.Protocol{
			SlideDist:     0.55,
			SlideDur:      1.0,
			HoldDur:       0.45,
			Slides:        10,
			Mode:          sim.ModeHand,
			StatureChange: stature,
		},
		IMU:   imu.DefaultConfig(),
		Noise: room.WhiteNoise{},
		SNRdB: 15,
		Seed:  rng.Int63(),
	}
}

// TestLocate3DHandTrials posts all twelve hand-mode 3D sessions of
// Fig. 17 at 1 m to /v1/locate?mode=3d: every answer is 200 or 422 with
// a body that decodes. Trials 5 and 7 have an unrealizable stature
// triangle (β null); the other ten skip under -short.
func TestLocate3DHandTrials(t *testing.T) {
	got, want := fig17Trial(7), undefinedBetaScenario()
	if got.SpeakerPos != want.SpeakerPos || got.PhoneStart != want.PhoneStart || got.Seed != want.Seed ||
		got.SpeakerSkewPPM != want.SpeakerSkewPPM || got.Protocol != want.Protocol {
		t.Fatalf("trial 7 rebuilt as %+v, want %+v", got, want)
	}
	_, ts, _ := newTestServer(t, func(c *Config) { c.Queue = 12 })
	for i := 0; i < 12; i++ {
		t.Run(fmt.Sprintf("trial%d", i), func(t *testing.T) {
			if testing.Short() && i != 5 && i != 7 {
				t.Skip("-short runs trials 5 and 7 only")
			}
			t.Parallel()
			s, err := sim.Run(fig17Trial(i))
			if err != nil {
				t.Fatal(err)
			}
			b, err := encodeBundle(s)
			if err != nil {
				t.Fatal(err)
			}
			code, body := post(t, ts, "/v1/locate?mode=3d", b.contentType, b.body)
			switch code {
			case http.StatusOK:
				var res locate3DResponse
				if err := json.Unmarshal(body, &res); err != nil || res.Mode != "3d" {
					t.Fatalf("200 body does not decode as a 3D fix (%v):\n%s", err, body)
				}
			case http.StatusUnprocessableEntity:
				var e errorBody
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Fatalf("422 body does not decode as an error (%v):\n%s", err, body)
				}
			default:
				t.Fatalf("status %d: %s", code, body)
			}
		})
	}
}

// TestLocateRateFromWAV: a 48 kHz session posted without sampleRateHz
// localizes at the WAV header's rate, not the server's 44.1 kHz
// default, and answers what it answers with the rate stated.
func TestLocateRateFromWAV(t *testing.T) {
	sc := testScenario()
	sc.Phone = sc.Phone.HiResVariant()
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	stated, err := encodeBundle(s)
	if err != nil {
		t.Fatal(err)
	}
	omitted, err := encodeBundleMeta(s, map[string]any{
		"phoneName": sc.Phone.Name, "micSeparationM": sc.Phone.MicSeparation,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, nil)
	code, want := post(t, ts, "/v1/locate", stated.contentType, stated.body)
	if code != http.StatusOK {
		t.Fatalf("rate stated: status %d: %s", code, want)
	}
	code, got := post(t, ts, "/v1/locate", omitted.contentType, omitted.body)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("rate omitted: status %d, body\n%s\nwant\n%s", code, got, want)
	}
}

// TestMetaUnknownFieldRejected: a meta with a mistyped key answers 400
// on both endpoints that take one, instead of localizing with the
// server's defaults.
func TestMetaUnknownFieldRejected(t *testing.T) {
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	typo := map[string]any{"sampleRate": 44100, "micSeparation": s.Scenario.Phone.MicSeparation}
	b, err := encodeBundleMeta(s, typo)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(typo)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, reg := newTestServer(t, nil)
	if code, body := post(t, ts, "/v1/locate", b.contentType, b.body); code != http.StatusBadRequest {
		t.Errorf("/v1/locate: status %d, want 400: %s", code, body)
	}
	if code, body := post(t, ts, "/v1/sessions", "application/json", raw); code != http.StatusBadRequest {
		t.Errorf("/v1/sessions: status %d, want 400: %s", code, body)
	}
	if got := reg.Get(MReqRejected); got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
}

// TestReadBodyClaimAllocatesNothing: a Content-Length claim reserves no
// memory. A 4-byte body claiming 64 MiB allocates in proportion to the
// bytes that arrived.
func TestReadBodyClaimAllocatesNothing(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader("{}\n\n"))
	req.ContentLength = 64 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, ok := srv.readBody(httptest.NewRecorder(), req)
	runtime.ReadMemStats(&after)
	if !ok {
		t.Fatal("readBody refused a 4-byte body")
	}
	defer sessionio.RecycleBuffer(body)
	if body.String() != "{}\n\n" {
		t.Errorf("read %q", body.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("allocated %d bytes for a 4-byte body, want < 1 MiB", got)
	}
}

// TestWriteJSONEncodeFailure500: a value json refuses answers 500 with a
// JSON error body and counts under MEncodeErrors; an encodable value
// goes out with its status as indented JSON.
func TestWriteJSONEncodeFailure500(t *testing.T) {
	srv, _, reg := newTestServer(t, nil)
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, locate2DResponse{L: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	if e := decodeJSON[errorBody](t, rec.Body); e.Error == "" {
		t.Error("500 body carries no error")
	}
	if got := reg.Get(MEncodeErrors); got != 1 {
		t.Errorf("%s = %d, want 1", MEncodeErrors, got)
	}

	rec = httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusCreated, errorBody{Error: "x"})
	if want := "{\n  \"error\": \"x\"\n}\n"; rec.Code != http.StatusCreated || rec.Body.String() != want {
		t.Errorf("got %d %q, want 201 %q", rec.Code, rec.Body.String(), want)
	}
	if got := reg.Get(MEncodeErrors); got != 1 {
		t.Errorf("%s = %d after an encodable value, want 1", MEncodeErrors, got)
	}
}

func TestLocateBadContentType(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	resp, err := ts.Client().Post(ts.URL+"/v1/locate", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
	if got := reg.Get(MReqRejected); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

func TestLocateBadMode(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate?mode=4d"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestLocateOversizedBody(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 1024 })
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestLocateNonFiniteRejected pins the floatguard ingestion contract at
// the HTTP boundary: non-finite floats in the meta sidecar or the IMU
// CSV must die with 400, not reach the pipeline.
func TestLocateNonFiniteRejected(t *testing.T) {
	b, err := testBundle()
	if err != nil {
		t.Fatal(err)
	}
	build := func(metaJSON, imuCSV string) *http.Request {
		var buf bytes.Buffer
		w := multipart.NewWriter(&buf)
		// Reuse the rendered WAV part bytes by re-parsing the shared body.
		mr := multipart.NewReader(bytes.NewReader(b.body), strings.TrimPrefix(b.contentType, "multipart/form-data; boundary="))
		for {
			p, err := mr.NextPart()
			if err != nil {
				break
			}
			if p.FormName() != sessionio.PartAudio {
				continue
			}
			fw, _ := w.CreateFormFile(sessionio.PartAudio, "audio.wav")
			io.Copy(fw, p)
		}
		iw, _ := w.CreateFormFile(sessionio.PartIMU, "imu.csv")
		io.WriteString(iw, imuCSV)
		if metaJSON != "" {
			mw, _ := w.CreateFormFile(sessionio.PartMeta, "meta.json")
			io.WriteString(mw, metaJSON)
		}
		w.Close()
		req, _ := http.NewRequest("POST", "/v1/locate", &buf)
		req.Header.Set("Content-Type", w.FormDataContentType())
		return req
	}
	goodIMU := "# fs=100\nax,ay,az,gx,gy,gz,gravx,gravy,gravz\n0,0,0,0,0,0,0,0,9.81\n"
	cases := []struct {
		name string
		req  *http.Request
	}{
		{"over-range meta float", build(`{"sampleRateHz":1e999}`, goodIMU)},
		{"NaN IMU sample", build("", "# fs=100\nax,ay,az,gx,gy,gz,gravx,gravy,gravz\nNaN,0,0,0,0,0,0,0,9.81\n")},
		{"Inf IMU sample", build("", "# fs=100\nax,ay,az,gx,gy,gz,gravx,gravy,gravz\n0,+Inf,0,0,0,0,0,0,9.81\n")},
	}
	srv, _, _ := newTestServer(t, nil)
	for _, c := range cases {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, c.req)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body: %s)", c.name, rr.Code, rr.Body.String())
		}
	}
}

func TestQueueFullSheds429(t *testing.T) {
	srv, ts, reg := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Queue = 1
	})
	// Exhaust the admission bound directly (same-package access to the
	// ticket semaphore) so the next HTTP request is deterministically
	// shed — no timing games with real pipeline runs.
	for i := 0; i < srv.QueueBound(); i++ {
		select {
		case srv.pool.tickets <- struct{}{}:
		default:
			t.Fatalf("ticket %d unavailable: bound smaller than expected", i)
		}
	}
	defer func() {
		for i := 0; i < srv.QueueBound(); i++ {
			<-srv.pool.tickets
		}
	}()

	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra, ok := RetryAfterSeconds(resp.Header); !ok || ra <= 0 {
		t.Errorf("429 must carry a positive Retry-After, got %v %v", ra, ok)
	}
	if got := reg.Get(MReqShedPrefix + "queue_full"); got != 1 {
		t.Errorf("shed.queue_full = %d, want 1", got)
	}
}

func TestDrainSheds503(t *testing.T) {
	srv, ts, reg := newTestServer(t, nil)
	srv.BeginDrain()

	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("locate while draining: status = %d, want 503", resp.StatusCode)
	}
	if ra, ok := RetryAfterSeconds(resp.Header); !ok || ra <= 0 {
		t.Errorf("503 must carry a positive Retry-After, got %v %v", ra, ok)
	}

	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status = %d, want 503", resp.StatusCode)
	}

	// Liveness is unaffected by draining.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status = %d, want 200", resp.StatusCode)
	}

	resp, err = ts.Client().Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("session create while draining: status = %d, want 503", resp.StatusCode)
	}

	if got := reg.Get(MReqShedPrefix + "draining"); got != 2 {
		t.Errorf("shed.draining = %d, want 2", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics must be JSON: %v", err)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text format content type = %q", ct)
	}
	_ = text
}

// pcmChunk converts a float64 stereo pair into interleaved int16 LE PCM.
func pcmChunk(m1, m2 []float64) []byte {
	out := make([]byte, 4*len(m1))
	for i := range m1 {
		binary.LittleEndian.PutUint16(out[i*4:], uint16(int16(clamp16(m1[i]))))
		binary.LittleEndian.PutUint16(out[i*4+2:], uint16(int16(clamp16(m2[i]))))
	}
	return out
}

func clamp16(v float64) int32 {
	s := int32(v * 32767)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return s
}

func TestSessionLifecycle(t *testing.T) {
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	_, ts, reg := newTestServer(t, nil)

	// Create.
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sampleRateHz":%g,"micSeparationM":%g}`,
			s.Scenario.Phone.SampleRate, s.Scenario.Phone.MicSeparation)))
	if err != nil {
		t.Fatal(err)
	}
	created := decodeJSON[sessionCreateResponse](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: status %d id %q", resp.StatusCode, created.ID)
	}

	// Stream the audio in chunks; across the whole stream the detectors
	// must report beacons (live feedback).
	const chunkSamples = 65536
	totalDets := 0
	for at := 0; at < len(s.Recording.Mic1); at += chunkSamples {
		end := at + chunkSamples
		if end > len(s.Recording.Mic1) {
			end = len(s.Recording.Mic1)
		}
		chunk := pcmChunk(s.Recording.Mic1[at:end], s.Recording.Mic2[at:end])
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/audio",
			"application/octet-stream", bytes.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("audio append: status %d: %s", resp.StatusCode, body)
		}
		ar := decodeJSON[audioAppendResponse](t, resp.Body)
		resp.Body.Close()
		totalDets += len(ar.Detections)
	}
	if totalDets == 0 {
		t.Fatal("streaming a full session must yield beacon detections")
	}

	// IMU.
	var imuBuf bytes.Buffer
	if err := sessionio.WriteIMU(&imuBuf, s.IMU); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/imu", "text/csv", &imuBuf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("imu: status %d, want 204", resp.StatusCode)
	}

	// Locate over the accumulated stream.
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/locate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("session locate: status %d: %s", resp.StatusCode, body)
	}
	res := decodeJSON[locate2DResponse](t, resp.Body)
	resp.Body.Close()
	if res.Fixes == 0 {
		t.Fatalf("session locate produced no fixes: %+v", res)
	}

	// Delete; a second delete and further appends are 404.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+created.ID, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", resp.StatusCode)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", resp.StatusCode)
	}

	// Session accounting: one created, one explicit eviction, none active.
	if got := reg.Get(MSessCreated); got != 1 {
		t.Errorf("sessions created = %d, want 1", got)
	}
	if got := reg.Get(MSessEvictedPrefix + EvictExplicit); got != 1 {
		t.Errorf("explicit evictions = %d, want 1", got)
	}
	if got := reg.Gauge(GSessionsActive).Value(); got != 0 {
		t.Errorf("active sessions = %d, want 0", got)
	}
}

func TestSessionAudioBadChunk(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	created := decodeJSON[sessionCreateResponse](t, resp.Body)
	resp.Body.Close()

	// Not a multiple of one stereo frame.
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/audio",
		"application/octet-stream", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("odd chunk: status %d, want 400", resp.StatusCode)
	}

	// Unknown session.
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/nope/audio",
		"application/octet-stream", bytes.NewReader(make([]byte, 8)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}
}

func TestSessionSampleLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) { c.MaxSessionSamples = 16 })
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	created := decodeJSON[sessionCreateResponse](t, resp.Body)
	resp.Body.Close()
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/audio",
		"application/octet-stream", bytes.NewReader(make([]byte, 4*17)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over sample limit: status %d, want 413", resp.StatusCode)
	}
}

func TestSessionIdleEviction(t *testing.T) {
	srv, ts, reg := newTestServer(t, func(c *Config) {
		c.SessionIdleTimeout = time.Minute
		// Keep the real janitor out of the way; the test drives the sweep.
		c.SweepInterval = time.Hour
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	created := decodeJSON[sessionCreateResponse](t, resp.Body)
	resp.Body.Close()

	if n := srv.sessions.sweepIdle(time.Now()); n != 0 {
		t.Fatalf("fresh session swept: %d evictions", n)
	}
	if n := srv.sessions.sweepIdle(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("idle sweep evicted %d sessions, want 1", n)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/audio",
		"application/octet-stream", bytes.NewReader(make([]byte, 8)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still reachable: status %d", resp.StatusCode)
	}
	if got := reg.Get(MSessEvictedPrefix + EvictIdle); got != 1 {
		t.Errorf("idle evictions = %d, want 1", got)
	}
}

func TestSessionCapacityEviction(t *testing.T) {
	srv, ts, reg := newTestServer(t, func(c *Config) { c.MaxSessions = 1 })
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
	}
	if got := srv.sessions.len(); got != 1 {
		t.Errorf("live sessions = %d, want 1 (stalest evicted)", got)
	}
	if got := reg.Get(MSessEvictedPrefix + EvictCapacity); got != 1 {
		t.Errorf("capacity evictions = %d, want 1", got)
	}
	if got := reg.Get(MSessCreated); got != 2 {
		t.Errorf("created = %d, want 2", got)
	}
}

// TestShutdownDrainsInFlight proves the drain sequence: a request
// admitted before BeginDrain completes normally while a request arriving
// after is shed with 503.
func TestShutdownDrainsInFlight(t *testing.T) {
	srv, ts, reg := newTestServer(t, nil)

	inflight := make(chan *http.Response, 1)
	inflightErr := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
		if err != nil {
			inflightErr <- err
			return
		}
		inflight <- resp
	}()

	// Wait until the request is admitted (holding a pool ticket).
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge(GQueueDepth).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	srv.BeginDrain()

	// New work is refused...
	resp, err := ts.Client().Do(bundleRequest(t, ts.URL+"/v1/locate"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", resp.StatusCode)
	}

	// ...while the admitted request runs to completion.
	select {
	case resp := <-inflight:
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("in-flight request: status %d: %s", resp.StatusCode, body)
		}
	case err := <-inflightErr:
		t.Fatalf("in-flight request failed: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request hung through drain")
	}
}

func TestPoolQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	p := newPool(1, 1, obs.New(nil, reg).Gauge(GQueueDepth))
	rel1, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Second admitted request queues (ticket taken, waiting on a slot) —
	// acquire from a goroutine since it blocks.
	queued := make(chan func(), 1)
	go func() {
		rel, err := p.acquire(context.Background())
		if err != nil {
			t.Error(err)
			queued <- nil
			return
		}
		queued <- rel
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.tickets) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never took its ticket")
		}
		time.Sleep(time.Millisecond)
	}
	// Third is past the bound: shed immediately.
	if _, err := p.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("over-bound acquire: got %v, want errQueueFull", err)
	}
	rel1()
	rel2 := <-queued
	if rel2 == nil {
		t.Fatal("queued acquire failed")
	}
	rel2()
	if got := reg.Gauge(GQueueDepth).Value(); got != 0 {
		t.Errorf("final queue depth = %d, want 0", got)
	}
	if got := reg.Gauge(GQueueDepth).Max(); got != 2 {
		t.Errorf("queue depth watermark = %d, want 2", got)
	}
}

func TestPoolCanceledWhileQueued(t *testing.T) {
	p := newPool(1, 1, nil)
	rel, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued acquire: got %v, want context.Canceled", err)
	}
}

func TestPoolDrainWakesQueued(t *testing.T) {
	p := newPool(1, 1, nil)
	rel, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	got := make(chan error, 1)
	go func() {
		_, err := p.acquire(context.Background())
		got <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.tickets) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued acquire never took its ticket")
		}
		time.Sleep(time.Millisecond)
	}
	p.drain()
	p.drain() // idempotent
	select {
	case err := <-got:
		if !errors.Is(err, errDraining) {
			t.Fatalf("drained queued acquire: got %v, want errDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire not woken by drain")
	}
	if _, err := p.acquire(context.Background()); !errors.Is(err, errDraining) {
		t.Fatalf("post-drain acquire: got %v, want errDraining", err)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	h := http.Header{}
	if _, ok := RetryAfterSeconds(h); ok {
		t.Error("missing header must report !ok")
	}
	h.Set("Retry-After", "5")
	if n, ok := RetryAfterSeconds(h); !ok || n != 5 {
		t.Errorf("got %d %v, want 5 true", n, ok)
	}
	h.Set("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
	if _, ok := RetryAfterSeconds(h); ok {
		t.Error("date form must report !ok")
	}
}

// TestConfigNormalizeWorkers: Workers 0 selects GOMAXPROCS and an
// explicit count is kept; Queue 0 selects 2×Workers and a negative Queue
// means none. Pipeline.Parallelism, which no longer sizes anything, is
// neither read nor written.
func TestConfigNormalizeWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name                string
		workers, queue, par int
		wantWork, wantQueue int
	}{
		{"defaults", 0, 0, 0, procs, 2 * procs},
		{"explicit workers", 3, 0, 0, 3, 6},
		{"explicit queue", 1, 5, 0, 1, 5},
		{"negative queue", 2, -1, 0, 2, 0},
		{"negative workers", -4, 0, 0, procs, 2 * procs},
		{"parallelism ignored", 0, 0, 7, procs, 2 * procs},
		{"parallelism kept", 2, 0, 1, 2, 4},
	} {
		in := Config{Workers: c.workers, Queue: c.queue}
		in.Pipeline.Parallelism = c.par
		got := in.Normalize()
		if got.Workers != c.wantWork || got.Queue != c.wantQueue {
			t.Errorf("%s: Workers %d, Queue %d; want %d, %d", c.name, got.Workers, got.Queue, c.wantWork, c.wantQueue)
		}
		if got.Pipeline.Parallelism != c.par {
			t.Errorf("%s: Pipeline.Parallelism %d, want it left at %d", c.name, got.Pipeline.Parallelism, c.par)
		}
	}
}

// TestConfigNormalizeMaxBody: MaxBodyBytes defaults to 64 MiB and is
// capped at the largest payload one session store record holds, so an
// over-limit chunk is refused with 413 instead of failing in the store.
func TestConfigNormalizeMaxBody(t *testing.T) {
	for _, c := range []struct {
		name     string
		in, want int64
	}{
		{"default", 0, 64 << 20},
		{"negative", -1, 64 << 20},
		{"explicit", 1 << 20, 1 << 20},
		{"at the record cap", sessionstore.MaxPayloadBytes, sessionstore.MaxPayloadBytes},
		{"over the record cap", 1 << 30, sessionstore.MaxPayloadBytes},
	} {
		if got := (Config{MaxBodyBytes: c.in}).Normalize().MaxBodyBytes; got != c.want {
			t.Errorf("%s: MaxBodyBytes %d, want %d", c.name, got, c.want)
		}
	}
}

// QueueBound returns the admission bound (workers + queue), the level
// the queue-depth gauge's high-watermark must never exceed.
func (s *Server) QueueBound() int { return cap(s.pool.tickets) }

// TickWindow advances the rolling latency window by one capture, as the
// janitor does every SweepInterval, for tests driving a synthetic clock.
func (s *Server) TickWindow(now time.Time) { s.window.Tick(now) }

// len returns the live session count.
func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// RetryAfterSeconds parses a Retry-After header value written by the
// server (always integral seconds).
func RetryAfterSeconds(h http.Header) (int, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

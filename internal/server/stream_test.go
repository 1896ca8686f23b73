package server

// Streamed sessions against the batch path: a session's locate reuses
// the matched-filter blocks its envelope feeds computed chunk by chunk,
// and its body must equal /v1/locate's for the same samples byte for
// byte, whatever the chunking, across a restart, and while appends race
// it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sessionio"
	"hyperear/internal/sim"
)

// testSession3D lazily renders a small two-stature session: two slides
// on each side of a 0.4 m stature change.
var testSession3D = sync.OnceValues(func() (*sim.Session, error) {
	return sim.Run(sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          mic.GalaxyS4(),
		Source:         chirp.Default(),
		SpeakerPos:     geom.Vec3{X: 8, Y: 6, Z: 0.5},
		SpeakerSkewPPM: -20,
		PhoneStart:     geom.Vec3{X: 4, Y: 6, Z: 1.3},
		Protocol: sim.Protocol{
			SlideDist:     0.55,
			SlideDur:      1.0,
			HoldDur:       0.45,
			Slides:        4,
			Mode:          sim.ModeRuler,
			StatureChange: -0.4,
		},
		IMU:   imu.DefaultConfig(),
		Noise: room.WhiteNoise{},
		SNRdB: 18,
		Seed:  9,
	})
})

// testSessionInaudible lazily renders the shared session's scenario with
// the 18-21.5 kHz beacon on the phone's 48 kHz capture mode: the beacon
// whose timing scans the narrowband envelope lobes.
var testSessionInaudible = sync.OnceValues(func() (*sim.Session, error) {
	sc := testScenario()
	sc.Phone = sc.Phone.HiResVariant()
	sc.Source = chirp.Inaudible()
	return sim.Run(sc)
})

// newInaudibleCase is the inaudible session as a stream case whose
// bundle meta and create body both name its rate and beacon.
func newInaudibleCase(t *testing.T) streamCase {
	t.Helper()
	s, err := testSessionInaudible()
	if err != nil {
		t.Fatal(err)
	}
	c := newStreamCase(t, "2d", s)
	src := s.Scenario.Source
	meta := sessionio.Meta{
		PhoneName:     s.Scenario.Phone.Name,
		MicSeparation: s.Scenario.Phone.MicSeparation,
		SampleRate:    s.Scenario.Phone.SampleRate,
		ChirpLowHz:    src.Low,
		ChirpHighHz:   src.High,
		ChirpDurS:     src.Duration,
		ChirpPeriodS:  src.Period,
	}
	if c.bundle, err = encodeBundleMeta(s, meta); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	c.createBody = string(body)
	return c
}

// streamCase is one simulated session in both wire forms: the batch
// multipart bundle, and the interleaved stereo int16 PCM the WAV inside
// it carries, which a streaming client sends chunk by chunk.
type streamCase struct {
	mode       string
	bundle     encodedBundle
	pcm        []byte
	imuCSV     []byte
	createBody string
}

func newStreamCase(t *testing.T, mode string, s *sim.Session) streamCase {
	t.Helper()
	b, err := encodeBundle(s)
	if err != nil {
		t.Fatal(err)
	}
	var wav, csv bytes.Buffer
	if err := sessionio.WriteRecording(&wav, s.Recording); err != nil {
		t.Fatal(err)
	}
	if err := sessionio.WriteIMU(&csv, s.IMU); err != nil {
		t.Fatal(err)
	}
	frames := len(s.Recording.Mic1)
	return streamCase{
		mode:   mode,
		bundle: b,
		pcm:    wav.Bytes()[wav.Len()-4*frames:],
		imuCSV: csv.Bytes(),
		createBody: fmt.Sprintf(`{"sampleRateHz":%g,"micSeparationM":%g}`,
			s.Scenario.Phone.SampleRate, s.Scenario.Phone.MicSeparation),
	}
}

// chunks cuts the PCM into chunks of the given frame counts, cycled.
func (c streamCase) chunks(frames ...int) [][]byte {
	var out [][]byte
	for at, i := 0, 0; at < len(c.pcm); i++ {
		end := min(at+4*frames[i%len(frames)], len(c.pcm))
		out = append(out, c.pcm[at:end])
		at = end
	}
	return out
}

// post sends one request and returns the status and body.
func post(t *testing.T, ts *httptest.Server, path, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// batchLocate is the /v1/locate body for the case's bundle.
func (c streamCase) batchLocate(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	code, body := post(t, ts, "/v1/locate?mode="+c.mode, c.bundle.contentType, c.bundle.body)
	if code != http.StatusOK {
		t.Fatalf("batch locate: status %d: %s", code, body)
	}
	return body
}

// finish attaches the IMU trace and returns the session locate's body.
func (c streamCase) finish(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	if code, body := post(t, ts, "/v1/sessions/"+id+"/imu", "text/csv", c.imuCSV); code != http.StatusNoContent {
		t.Fatalf("imu: status %d: %s", code, body)
	}
	code, body := post(t, ts, "/v1/sessions/"+id+"/locate?mode="+c.mode, "", nil)
	if code != http.StatusOK {
		t.Fatalf("session locate: status %d: %s", code, body)
	}
	return body
}

// TestSessionLocateMatchesBatch: for a 2D and a 3D session, and a 2D
// session of the inaudible beacon at 48 kHz (whose narrowband timing
// windows overlap), streamed in
// 4096-frame chunks, 65536-frame chunks and chunks straddling the ASP's
// 14320-sample block step, and once more with a restart over a FileStore
// halfway through (recovery rebuilds the feeds' blocks from the
// persisted PCM), the session locate body equals the /v1/locate body for
// the same samples byte for byte.
func TestSessionLocateMatchesBatch(t *testing.T) {
	s2, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	s3, err := testSession3D()
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, nil)
	for _, c := range []streamCase{newStreamCase(t, "2d", s2), newStreamCase(t, "3d", s3), newInaudibleCase(t)} {
		want := c.batchLocate(t, ts)
		for name, frames := range map[string][]int{
			"4096":       {4096},
			"65536":      {65536},
			"straddling": {14319, 2, 16383, 1},
		} {
			id := createSession(t, ts, c.createBody)
			for _, chunk := range c.chunks(frames...) {
				pushAudio(t, ts, id, chunk)
			}
			if got := c.finish(t, ts, id); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: session locate differs from batch\n got: %s\nwant: %s", c.mode, name, got, want)
			}
		}

		dir := t.TempDir()
		st1 := openTestStore(t, dir)
		_, ts1, _ := newTestServer(t, func(cfg *Config) { cfg.Store = st1; cfg.SweepInterval = time.Hour })
		chunks := c.chunks(10007)
		id := createSession(t, ts1, c.createBody)
		half := len(chunks) / 2
		for _, chunk := range chunks[:half] {
			pushAudio(t, ts1, id, chunk)
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}
		st2 := openTestStore(t, dir)
		_, ts2, reg2 := newTestServer(t, func(cfg *Config) { cfg.Store = st2; cfg.SweepInterval = time.Hour })
		if got := reg2.Get(MSessRecovered); got != 1 {
			t.Fatalf("recovered = %d, want 1", got)
		}
		for _, chunk := range chunks[half:] {
			pushAudio(t, ts2, id, chunk)
		}
		if got := c.finish(t, ts2, id); !bytes.Equal(got, want) {
			t.Errorf("%s/restart: session locate differs from batch\n got: %s\nwant: %s", c.mode, got, want)
		}
	}
}

// streamChunks appends each chunk to the session and returns the
// detections the responses report, in order.
func streamChunks(t *testing.T, ts *httptest.Server, id string, chunks [][]byte) []detectionJSON {
	t.Helper()
	var dets []detectionJSON
	for _, chunk := range chunks {
		code, body := post(t, ts, "/v1/sessions/"+id+"/audio", "application/octet-stream", chunk)
		if code != http.StatusOK {
			t.Fatalf("audio append: status %d: %s", code, body)
		}
		var r audioAppendResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		dets = append(dets, r.Detections...)
	}
	return dets
}

// TestSessionChunkDetections: a session's beacon feedback is the same
// bits for chunks of 1000, 4096 and 65536 frames, and across a restart
// over a FileStore halfway through (recovery replays the persisted PCM
// through the same ingest, which makes the same blocks final).
func TestSessionChunkDetections(t *testing.T) {
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	c := newStreamCase(t, "2d", s)
	_, ts, _ := newTestServer(t, nil)
	want := streamChunks(t, ts, createSession(t, ts, c.createBody), c.chunks(4096))
	beacons := int(float64(len(s.Recording.Mic1)) / s.Recording.Fs / s.Scenario.Source.Period)
	if len(want) < beacons-5 || len(want) > beacons {
		t.Fatalf("4096-frame chunks reported %d beacons, the session holds %d", len(want), beacons)
	}
	same := func(what string, got []detectionJSON) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d detections, want %d", what, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Index != w.Index || math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
				math.Float64bits(g.Strength) != math.Float64bits(w.Strength) || math.Float64bits(g.SNR) != math.Float64bits(w.SNR) {
				t.Fatalf("%s: detection %d is %+v, want %+v", what, i, g, w)
			}
		}
	}
	for _, frames := range []int{1000, 65536} {
		same(fmt.Sprintf("%d-frame chunks", frames), streamChunks(t, ts, createSession(t, ts, c.createBody), c.chunks(frames)))
	}

	dir := t.TempDir()
	st1 := openTestStore(t, dir)
	_, ts1, _ := newTestServer(t, func(cfg *Config) { cfg.Store = st1; cfg.SweepInterval = time.Hour })
	chunks := c.chunks(4096)
	id := createSession(t, ts1, c.createBody)
	half := len(chunks) / 2
	got := streamChunks(t, ts1, id, chunks[:half])
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	_, ts2, reg2 := newTestServer(t, func(cfg *Config) { cfg.Store = st2; cfg.SweepInterval = time.Hour })
	if got := reg2.Get(MSessRecovered); got != 1 {
		t.Fatalf("recovered = %d, want 1", got)
	}
	same("restart", append(got, streamChunks(t, ts2, id, chunks[half:])...))
}

// TestSessionCreateRejectsBadChirp: a meta whose beacon no detector can
// run at its rate is refused at create with 400, before any audio.
func TestSessionCreateRejectsBadChirp(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for _, meta := range []string{`{"chirpHighHz":30000}`, `{"sampleRateHz":44100,"chirpLowHz":9000,"chirpHighHz":8000}`} {
		if code, body := post(t, ts, "/v1/sessions", "application/json", []byte(meta)); code != http.StatusBadRequest {
			t.Errorf("create with %s: status %d, want 400: %s", meta, code, body)
		}
	}
}

// TestLocalizerCacheBounded: more distinct metas than maxLocalizers
// leave the localizer cache at its cap, and a session whose Localizer
// the cache has evicted still locates on it — its feeds' prefixes in
// use — and answers byte for byte what /v1/locate answers.
func TestLocalizerCacheBounded(t *testing.T) {
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	c := newStreamCase(t, "2d", s)
	srv, ts, _ := newTestServer(t, func(cfg *Config) { cfg.SweepInterval = time.Hour })
	want := c.batchLocate(t, ts)
	id := createSession(t, ts, c.createBody)
	for _, chunk := range c.chunks(4096) {
		pushAudio(t, ts, id, chunk)
	}
	for i := 0; i < maxLocalizers+3; i++ {
		createSession(t, ts, fmt.Sprintf(`{"sampleRateHz":%g,"micSeparationM":%g}`,
			s.Scenario.Phone.SampleRate, 0.2+float64(i)*1e-3))
	}
	sess, err := srv.sessions.get(id)
	if err != nil {
		t.Fatal(err)
	}
	srv.locMu.Lock()
	size, tick := len(srv.locs), srv.locTick
	cached := false
	for _, e := range srv.locs {
		cached = cached || e.loc == sess.loc
	}
	srv.locMu.Unlock()
	if size != maxLocalizers {
		t.Fatalf("localizer cache holds %d entries, want the cap %d", size, maxLocalizers)
	}
	if cached || sess.loc == nil {
		t.Fatalf("session localizer %p still cached (%v): the test must evict it", sess.loc, cached)
	}
	if got := c.finish(t, ts, id); !bytes.Equal(got, want) {
		t.Errorf("evicted session's locate differs from batch\n got: %s\nwant: %s", got, want)
	}
	srv.locMu.Lock()
	defer srv.locMu.Unlock()
	if srv.locTick != tick {
		t.Error("the session locate resolved a Localizer from the cache instead of running its own")
	}
}

// TestSessionLocalizerFailure422: a session whose Localizer cannot be
// built still streams, and its locate fails with the body /v1/locate
// gives for the same parameters.
func TestSessionLocalizerFailure422(t *testing.T) {
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	c := newStreamCase(t, "2d", s)
	_, ts, _ := newTestServer(t, func(cfg *Config) { cfg.Pipeline.SpeedOfSound = -1 })
	code, want := post(t, ts, "/v1/locate?mode=2d", c.bundle.contentType, c.bundle.body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("batch locate with a bad pipeline: status %d, want 422: %s", code, want)
	}
	id := createSession(t, ts, c.createBody)
	for _, chunk := range c.chunks(65536) {
		pushAudio(t, ts, id, chunk)
	}
	if code, body := post(t, ts, "/v1/sessions/"+id+"/imu", "text/csv", c.imuCSV); code != http.StatusNoContent {
		t.Fatalf("imu: status %d: %s", code, body)
	}
	code, got := post(t, ts, "/v1/sessions/"+id+"/locate?mode=2d", "", nil)
	if code != http.StatusUnprocessableEntity || !bytes.Equal(got, want) {
		t.Fatalf("session locate: status %d, body %s; want 422 with %s", code, got, want)
	}
}

// TestSessionAudioConcurrentConsumed: concurrent appends to one session
// each report the accounting of their own chunk, read under the lock that
// applied it — distinct consumed counts, the larger one the total.
func TestSessionAudioConcurrentConsumed(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	id := createSession(t, ts, "")
	chunk := make([]byte, 4*4096)
	total := 0
	for round := 0; round < 20; round++ {
		var got [2]int
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/audio", "application/octet-stream", bytes.NewReader(chunk))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				got[i] = decodeJSON[audioAppendResponse](t, resp.Body).Consumed
			}()
		}
		wg.Wait()
		total += 2 * 4096
		if got[0] == got[1] || max(got[0], got[1]) != total || min(got[0], got[1]) != total-4096 {
			t.Fatalf("round %d: consumed %v, want %d and %d", round, got, total-4096, total)
		}
	}
}

// TestSessionLocateRacesAppends runs session locates while appends to
// the same session keep landing: under -race this checks that the
// locate's PCM and envelope-prefix reads outside the session lock never
// meet a write. Every locate succeeds or finds too little audio (422),
// and the final one, after the last chunk, equals the batch answer.
func TestSessionLocateRacesAppends(t *testing.T) {
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	c := newStreamCase(t, "2d", s)
	_, ts, _ := newTestServer(t, func(cfg *Config) { cfg.Queue = 8 })
	want := c.batchLocate(t, ts)
	id := createSession(t, ts, c.createBody)
	chunks := c.chunks(4096)
	pushAudio(t, ts, id, chunks[0])
	if code, body := post(t, ts, "/v1/sessions/"+id+"/imu", "text/csv", c.imuCSV); code != http.StatusNoContent {
		t.Fatalf("imu: status %d: %s", code, body)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, chunk := range chunks[1:] {
			pushAudio(t, ts, id, chunk)
		}
	}()
	for i := 0; i < 3; i++ {
		code, body := post(t, ts, "/v1/sessions/"+id+"/locate", "", nil)
		if code != http.StatusOK && code != http.StatusUnprocessableEntity {
			t.Errorf("racing locate %d: status %d: %s", i, code, body)
		}
	}
	wg.Wait()
	code, got := post(t, ts, "/v1/sessions/"+id+"/locate", "", nil)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("final locate: status %d, body differs from batch\n got: %s\nwant: %s", code, got, want)
	}
}

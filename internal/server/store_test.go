package server

// Recovery at the server layer: sessions persisted by a SessionStore
// come back into the live table at New, resume streaming under their
// old ids, and localize exactly as if the process had never restarted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/sessionio"
	"hyperear/internal/sessionstore"
)

func openTestStore(t *testing.T, dir string) *sessionstore.FileStore {
	t.Helper()
	st, err := sessionstore.Open(dir, sessionstore.Options{Fsync: sessionstore.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	created := decodeJSON[sessionCreateResponse](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: status %d id %q", resp.StatusCode, created.ID)
	}
	return created.ID
}

func pushAudio(t *testing.T, ts *httptest.Server, id string, chunk []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/audio",
		"application/octet-stream", bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audio append: status %d: %s", resp.StatusCode, body)
	}
}

func sessionLocate(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/locate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session locate: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestSessionRecoveryBitIdentical is the in-process twin of the cmd
// crash soak: a session streamed half into a store-backed server, the
// store closed and reopened under a fresh server (the crash boundary —
// the first server's table simply vanishes), the stream finished there.
// The final locate must be byte-identical to an uninterrupted run.
func TestSessionRecoveryBitIdentical(t *testing.T) {
	s, err := testSession()
	if err != nil {
		t.Fatal(err)
	}
	const chunkSamples = 65536
	var chunks [][]byte
	for at := 0; at < len(s.Recording.Mic1); at += chunkSamples {
		end := at + chunkSamples
		if end > len(s.Recording.Mic1) {
			end = len(s.Recording.Mic1)
		}
		chunks = append(chunks, pcmChunk(s.Recording.Mic1[at:end], s.Recording.Mic2[at:end]))
	}
	if len(chunks) < 2 {
		t.Fatalf("test session renders %d chunks, need >= 2", len(chunks))
	}
	createBody := fmt.Sprintf(`{"sampleRateHz":%g,"micSeparationM":%g}`,
		s.Scenario.Phone.SampleRate, s.Scenario.Phone.MicSeparation)
	var imuBuf bytes.Buffer
	if err := sessionio.WriteIMU(&imuBuf, s.IMU); err != nil {
		t.Fatal(err)
	}
	postIMU := func(ts *httptest.Server, id string) {
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/imu", "text/csv", bytes.NewReader(imuBuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("imu: status %d", resp.StatusCode)
		}
	}

	// Control: uninterrupted, no store.
	_, ctlTS, _ := newTestServer(t, nil)
	ctlID := createSession(t, ctlTS, createBody)
	for _, chunk := range chunks {
		pushAudio(t, ctlTS, ctlID, chunk)
	}
	postIMU(ctlTS, ctlID)
	want := sessionLocate(t, ctlTS, ctlID)

	// Interrupted: stream half into a store-backed server...
	dir := t.TempDir()
	st1 := openTestStore(t, dir)
	_, ts1, _ := newTestServer(t, func(c *Config) {
		c.Store = st1
		c.SweepInterval = time.Hour
	})
	id := createSession(t, ts1, createBody)
	half := len(chunks) / 2
	for _, chunk := range chunks[:half] {
		pushAudio(t, ts1, id, chunk)
	}
	// ...then abandon that server (its in-memory table is the state a
	// crash destroys) and bring up a new one over the same directory.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	_, ts2, reg2 := newTestServer(t, func(c *Config) {
		c.Store = st2
		c.SweepInterval = time.Hour
	})
	if got := reg2.Get(MSessRecovered); got != 1 {
		t.Fatalf("recovered = %d, want 1", got)
	}
	if got := reg2.Gauge(GSessionsActive).Value(); got != 1 {
		t.Fatalf("active after recovery = %d, want 1", got)
	}
	for _, chunk := range chunks[half:] {
		pushAudio(t, ts2, id, chunk)
	}
	postIMU(ts2, id)
	got := sessionLocate(t, ts2, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered locate differs from uninterrupted run\n got: %s\nwant: %s", got, want)
	}
}

// TestRecoveredInvalidEvicted seeds the store with a session whose audio
// cannot be a whole number of stereo frames: boot must count the
// recovery attempt, evict it durably under recovered.invalid, and serve.
func TestRecoveredInvalidEvicted(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if err := st.Create("bad", sessionio.Meta{}, chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAudio("bad", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	_, _, reg := newTestServer(t, func(c *Config) { c.Store = st })
	if got := reg.Get(MSessRecovered); got != 1 {
		t.Errorf("recovered = %d, want 1", got)
	}
	if got := reg.Get(MSessEvictedPrefix + EvictRecoveredInvalid); got != 1 {
		t.Errorf("recovered.invalid evictions = %d, want 1", got)
	}
	if got := reg.Gauge(GSessionsActive).Value(); got != 0 {
		t.Errorf("active = %d, want 0", got)
	}
	// The eviction is durable: a second recovery sees nothing.
	rs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("store still holds %d sessions after invalid eviction", len(rs))
	}
}

// TestRecoveredCapacityEvicted boots a MaxSessions=1 server over a store
// holding two valid sessions: one resumes, the overflow is evicted under
// recovered.capacity, and the accounting identity holds.
func TestRecoveredCapacityEvicted(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	for _, id := range []string{"a", "b"} {
		if err := st.Create(id, sessionio.Meta{}, chirp.Default(), 48000); err != nil {
			t.Fatal(err)
		}
	}
	srv, _, reg := newTestServer(t, func(c *Config) {
		c.Store = st
		c.MaxSessions = 1
	})
	if got := reg.Get(MSessRecovered); got != 2 {
		t.Errorf("recovered = %d, want 2", got)
	}
	if got := reg.Get(MSessEvictedPrefix + EvictRecoveredCapacity); got != 1 {
		t.Errorf("recovered.capacity evictions = %d, want 1", got)
	}
	if got := srv.sessions.len(); got != 1 {
		t.Errorf("live sessions = %d, want 1", got)
	}
	// created + recovered == evicted.* + active
	created, recovered := reg.Get(MSessCreated), reg.Get(MSessRecovered)
	evicted := reg.Get(MSessEvictedPrefix + EvictRecoveredCapacity)
	active := uint64(reg.Gauge(GSessionsActive).Value())
	if created+recovered != evicted+active {
		t.Errorf("accounting identity broken: %d+%d != %d+%d", created, recovered, evicted, active)
	}
}

// failingStore errors on every durable write past a configurable number
// of successes — the disk-full / torn-WAL stand-in.
type failingStore struct {
	sessionstore.SessionStore
	allow int // writes to let through before failing
}

func (f *failingStore) step() error {
	if f.allow > 0 {
		f.allow--
		return nil
	}
	return fmt.Errorf("store: injected write failure")
}

func (f *failingStore) Create(id string, meta sessionio.Meta, src chirp.Params, fs float64) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.SessionStore.Create(id, meta, src, fs)
}

func (f *failingStore) AppendAudio(id string, raw []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.SessionStore.AppendAudio(id, raw)
}

// TestStoreWriteFailure500 maps durable-write failures to the client: a
// failing store makes the mutating request a 500 with Retry-After, and
// the failure is counted.
func TestStoreWriteFailure500(t *testing.T) {
	fs := &failingStore{SessionStore: sessionstore.NewMemory(), allow: 1}
	_, ts, reg := newTestServer(t, func(c *Config) { c.Store = fs })

	// First write (the create) is allowed through.
	id := createSession(t, ts, "")

	// The audio append's store write fails: 500, Retry-After, counted.
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/audio",
		"application/octet-stream", bytes.NewReader(make([]byte, 8)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("append with failing store: status %d, want 500", resp.StatusCode)
	}
	if ra, ok := RetryAfterSeconds(resp.Header); !ok || ra <= 0 {
		t.Errorf("500 must carry a positive Retry-After, got %v %v", ra, ok)
	}
	if got := reg.Get(MStoreErrors); got != 1 {
		t.Errorf("store errors = %d, want 1", got)
	}

	// A failing create also surfaces as 500.
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("create with failing store: status %d, want 500", resp.StatusCode)
	}
}

// BenchmarkSessionIngest pins the streaming-append path — PCM decode,
// the WAL append when a store is attached, both channels'
// matched-filter blocks and mic1's beacon feedback — with and without
// the WAL underneath, so the durable path's overhead stays visible next
// to the in-memory default. Each pass streams the shared session's audio
// into a fresh session in 4096-frame chunks, as a phone does; one op is
// one chunk, and the create and delete between passes are untimed.
func BenchmarkSessionIngest(b *testing.B) {
	for _, c := range []struct {
		name  string
		store func(b *testing.B) sessionstore.SessionStore
	}{
		{"store=none", func(b *testing.B) sessionstore.SessionStore { return nil }},
		{"store=wal", func(b *testing.B) sessionstore.SessionStore {
			st, err := sessionstore.Open(b.TempDir(), sessionstore.Options{Fsync: sessionstore.FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { st.Close() })
			return st
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sess, err := testSession()
			if err != nil {
				b.Fatal(err)
			}
			phone := sess.Scenario.Phone
			srv := New(Config{
				Workers:  1,
				Pipeline: core.DefaultConfig(sess.Scenario.Source, phone.SampleRate, phone.MicSeparation),
				Store:    c.store(b),
			})
			defer func() {
				srv.BeginDrain()
				srv.FinishShutdown()
			}()
			h := srv.Handler()
			serve := func(method, path string, body []byte, want int) *httptest.ResponseRecorder {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
				if rr.Code != want {
					b.Fatalf("%s %s: status %d, want %d: %s", method, path, rr.Code, want, rr.Body)
				}
				return rr
			}
			meta := fmt.Sprintf(`{"sampleRateHz":%g,"micSeparationM":%g}`, phone.SampleRate, phone.MicSeparation)
			var chunks [][]byte
			m1, m2 := sess.Recording.Mic1, sess.Recording.Mic2
			for at := 0; at < len(m1); at += 4096 {
				end := min(at+4096, len(m1))
				chunks = append(chunks, pcmChunk(m1[at:end], m2[at:end]))
			}

			b.SetBytes(4 * 4096)
			b.ReportAllocs()
			b.ResetTimer()
			base := ""
			for i := 0; i < b.N; i++ {
				if i%len(chunks) == 0 {
					b.StopTimer()
					if base != "" {
						serve(http.MethodDelete, base, nil, http.StatusNoContent)
					}
					var created sessionCreateResponse
					if err := json.NewDecoder(serve(http.MethodPost, "/v1/sessions", []byte(meta), http.StatusCreated).Body).Decode(&created); err != nil {
						b.Fatal(err)
					}
					base = "/v1/sessions/" + created.ID
					b.StartTimer()
				}
				serve(http.MethodPost, base+"/audio", chunks[i%len(chunks)], http.StatusOK)
			}
		})
	}
}

package main

// Crash-recovery soak: the daemon is SIGKILLed between acknowledged
// session mutations and restarted on the same -data-dir; every
// acknowledged byte must survive, and the final localization must be
// bit-identical to an uninterrupted control run. The daemon runs as a
// child process (the test binary re-execs itself via TestMain) so the
// kill is a real SIGKILL — no deferred flushes, no atexit handlers.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
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

const (
	childEnv = "HYPEREARSERVD_CHILD"
	argsEnv  = "HYPEREARSERVD_ARGS"
)

// TestMain re-execs the test binary as the daemon itself when the child
// marker is set: the soak needs a separate process it can SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		args := strings.Split(os.Getenv(argsEnv), "\n")
		if err := run(args); err != nil {
			fmt.Fprintln(os.Stderr, "hyperearservd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashDir picks the durable directory for the soak. CI sets
// HYPEREAR_CRASH_DIR to a workspace path so the session logs survive
// the test run and upload as an artifact when the job fails.
func crashDir(t *testing.T) string {
	t.Helper()
	if d := os.Getenv("HYPEREAR_CRASH_DIR"); d != "" {
		p := filepath.Join(d, t.Name())
		if err := os.RemoveAll(p); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return t.TempDir()
}

// daemon is one child hyperearservd process.
type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	base    string        // http://host:port
	exited  chan struct{} // closed once the child is reaped
	waitErr error         // cmd.Wait result; valid after exited closes
}

// startDaemon spawns the daemon with the given flags and waits for its
// listen line on stderr.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1", argsEnv+"="+strings.Join(args, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		const marker = "hyperearservd: listening on "
		for sc.Scan() {
			line := sc.Text()
			t.Logf("[daemon %d] %s", cmd.Process.Pid, line)
			if rest, ok := strings.CutPrefix(line, marker); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-d.exited:
		t.Fatalf("daemon exited before listening: %v", d.waitErr)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never reported its listen address")
	}
	// Safe after any exit path: Kill on a reaped process just errors, and
	// the exited channel stays closed for repeat waits.
	t.Cleanup(func() { cmd.Process.Kill(); <-d.exited })
	return d
}

// kill SIGKILLs the daemon — no drain, no log flush beyond what fsync
// policy already made durable — and reaps it.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatal(err)
	}
	<-d.exited
}

// stop SIGTERMs the daemon and requires a clean drained exit.
func (d *daemon) stop() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			d.t.Fatalf("daemon drain exit: %v", d.waitErr)
		}
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		d.t.Fatal("daemon did not drain after SIGTERM")
	}
}

// soakSession lazily renders the one simulated session the soak drives
// through the daemons (same scenario family as the server tests: two
// ruler slides, enough for beacon fixes).
var soakSession = sync.OnceValues(func() (*sim.Session, error) {
	phone := mic.GalaxyS4()
	return sim.Run(sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          phone,
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
	})
})

func soakPCMChunks(s *sim.Session) [][]byte {
	const chunkSamples = 65536
	var chunks [][]byte
	for at := 0; at < len(s.Recording.Mic1); at += chunkSamples {
		end := at + chunkSamples
		if end > len(s.Recording.Mic1) {
			end = len(s.Recording.Mic1)
		}
		m1, m2 := s.Recording.Mic1[at:end], s.Recording.Mic2[at:end]
		out := make([]byte, 4*len(m1))
		for i := range m1 {
			binary.LittleEndian.PutUint16(out[i*4:], uint16(int16(clampPCM(m1[i]))))
			binary.LittleEndian.PutUint16(out[i*4+2:], uint16(int16(clampPCM(m2[i]))))
		}
		chunks = append(chunks, out)
	}
	return chunks
}

func clampPCM(v float64) int32 {
	s := int32(v * 32767)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return s
}

func soakPost(t *testing.T, url, contentType string, body []byte, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, out)
	}
	return out
}

func soakCreate(t *testing.T, base string, meta []byte) string {
	t.Helper()
	body := soakPost(t, base+"/v1/sessions", "application/json", meta, http.StatusCreated)
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("create response %q: %v", body, err)
	}
	return created.ID
}

// soakFinish posts the IMU trace and runs the final locate, returning
// the raw locate response bytes.
func soakFinish(t *testing.T, base, id string, imuCSV []byte) []byte {
	t.Helper()
	soakPost(t, base+"/v1/sessions/"+id+"/imu", "text/csv", imuCSV, http.StatusNoContent)
	return soakPost(t, base+"/v1/sessions/"+id+"/locate", "", nil, http.StatusOK)
}

// TestCrashRecoverySoak is the durability acceptance gate: a daemon on a
// file-backed store is SIGKILLed after session create and between every
// acknowledged audio chunk, restarted on the same directory each time,
// and finally restarted once more through a graceful SIGTERM drain. The
// resumed session's locate must match an uninterrupted in-memory control
// run byte for byte.
func TestCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak spawns daemons; skipped in -short")
	}
	s, err := soakSession()
	if err != nil {
		t.Fatal(err)
	}
	chunks := soakPCMChunks(s)
	if len(chunks) < 2 {
		t.Fatalf("soak session renders %d chunks, need >= 2 for a mid-stream kill", len(chunks))
	}
	meta := []byte(fmt.Sprintf(`{"sampleRateHz":%g,"micSeparationM":%g}`,
		s.Scenario.Phone.SampleRate, s.Scenario.Phone.MicSeparation))
	var imuBuf bytes.Buffer
	if err := sessionio.WriteIMU(&imuBuf, s.IMU); err != nil {
		t.Fatal(err)
	}

	// Control: one uninterrupted daemon, no store.
	ctl := startDaemon(t, "-addr", "127.0.0.1:0")
	ctlID := soakCreate(t, ctl.base, meta)
	for _, chunk := range chunks {
		soakPost(t, ctl.base+"/v1/sessions/"+ctlID+"/audio", "application/octet-stream", chunk, http.StatusOK)
	}
	want := soakFinish(t, ctl.base, ctlID, imuBuf.Bytes())
	ctl.stop()

	// Interrupted run: durable store, fsync on every append so an
	// acknowledged response implies the record is on disk.
	dir := crashDir(t)
	durableArgs := []string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync", "always"}

	d := startDaemon(t, durableArgs...)
	id := soakCreate(t, d.base, meta)

	// Kill #0: right after create — the emptiest possible recovery.
	d.kill()
	d = startDaemon(t, durableArgs...)

	for i, chunk := range chunks {
		soakPost(t, d.base+"/v1/sessions/"+id+"/audio", "application/octet-stream", chunk, http.StatusOK)
		if i < len(chunks)-1 {
			// Kill between acknowledged chunks; the restarted daemon must
			// resume the session with every acknowledged sample intact (a
			// 404 on the next append means recovery lost it).
			d.kill()
			d = startDaemon(t, durableArgs...)
		}
	}

	// One graceful restart too: shutdown evictions are not persisted, so
	// a drained daemon's sessions also resume.
	d.stop()
	d = startDaemon(t, durableArgs...)

	got := soakFinish(t, d.base, id, imuBuf.Bytes())
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered locate differs from uninterrupted control run\n got: %s\nwant: %s", got, want)
	}
	var res struct {
		Fixes int `json:"fixes"`
	}
	if err := json.Unmarshal(got, &res); err != nil || res.Fixes == 0 {
		t.Fatalf("recovered locate produced no fixes (%v): %s", err, got)
	}
	d.stop()
}

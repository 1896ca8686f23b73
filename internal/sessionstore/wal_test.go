package sessionstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/obs"
	"hyperear/internal/sessionio"
)

func testMeta(i int) sessionio.Meta {
	return sessionio.Meta{
		PhoneName:     fmt.Sprintf("phone-%d", i),
		MicSeparation: 0.13 + float64(i)*1e-3,
		SampleRate:    48000,
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *FileStore {
	t.Helper()
	f, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// reopen closes the store and opens a fresh one on the same directory —
// the recovery path under test.
func reopen(t *testing.T, f *FileStore, opts Options) *FileStore {
	t.Helper()
	dir := f.Dir()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, dir, opts)
}

func recovered(t *testing.T, s SessionStore) []Session {
	t.Helper()
	out, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, Options{Fsync: FsyncNever})

	src := chirp.Default()
	if err := f.Create("a", testMeta(1), src, 48000); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendAudio("a", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendAudio("a", []byte{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetIMU("a", []byte("ax,ay\n0,0\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.NoteLocate("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("b", testMeta(2), src, 44100); err != nil {
		t.Fatal(err)
	}
	if err := f.Evict("b", "explicit"); err != nil {
		t.Fatal(err)
	}
	// Evicting an unknown id is an idempotent no-op, like Memory.
	if err := f.Evict("ghost", "idle"); err != nil {
		t.Fatal(err)
	}
	// Mutating an unknown id is an error and must not dirty the log.
	if err := f.AppendAudio("ghost", []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("append to unknown session must error")
	}

	want := recovered(t, f)
	if len(want) != 1 || want[0].ID != "a" {
		t.Fatalf("live state: %+v", want)
	}
	if !bytes.Equal(want[0].Audio, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("audio accumulation: %v", want[0].Audio)
	}
	if want[0].Locates != 1 {
		t.Fatalf("locates = %d, want 1", want[0].Locates)
	}

	f = reopen(t, f, Options{Fsync: FsyncNever})
	defer f.Close()
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestTornTailTruncated cuts a session log mid-frame — the shape a crash
// during a write leaves behind — and requires recovery to keep every
// complete record, drop the torn tail, and keep accepting appends.
func TestTornTailTruncated(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Fsync: FsyncNever, Obs: obs.New(nil, reg)}
	dir := t.TempDir()
	f := mustOpen(t, dir, opts)
	if err := f.Create("a", testMeta(1), chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendAudio("a", bytes.Repeat([]byte{7}, 256)); err != nil {
		t.Fatal(err)
	}
	want := recovered(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, logName("a"))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh frame torn `cut` bytes in: mid-header, mid-body, one byte
	// short of complete.
	extra := appendFrame(nil, 99, recAudio, "a", bytes.Repeat([]byte{9}, 128))
	for _, cut := range []int{1, frameHeaderBytes - 1, frameHeaderBytes + 3, len(extra) / 2, len(extra) - 1} {
		if err := os.WriteFile(path, append(append([]byte(nil), whole...), extra[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		f = mustOpen(t, dir, opts)
		if got := recovered(t, f); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: recovered state diverged:\n got %+v\nwant %+v", cut, got, want)
		}
		// The torn tail is gone from disk and the log accepts new appends
		// at the clean boundary.
		if st, err := os.Stat(path); err != nil || st.Size() != int64(len(whole)) {
			t.Fatalf("cut %d: log size %v %v, want %d", cut, st.Size(), err, len(whole))
		}
		if err := f.NoteLocate("a"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		f = mustOpen(t, dir, opts)
		got := recovered(t, f)
		if len(got) != 1 || got[0].Locates != want[0].Locates+1 {
			t.Fatalf("cut %d: post-truncation append lost: %+v", cut, got)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// Restore the clean log for the next cut.
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Get(MTruncations) == 0 {
		t.Error("torn tails must count under " + MTruncations)
	}
}

// TestCorruptedCRC flips one payload byte inside a middle record: the
// scan must stop at the last frame whose CRC checks out, dropping the
// corrupt record and everything after it (suffix loss, never silent
// corruption).
func TestCorruptedCRC(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Fsync: FsyncNever, Obs: obs.New(nil, reg)}
	dir := t.TempDir()
	f := mustOpen(t, dir, opts)
	if err := f.Create("a", testMeta(1), chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	wantAfterCreate := recovered(t, f)
	if err := f.AppendAudio("a", bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := f.NoteLocate("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, logName("a"))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1 is the create; find the audio record's payload and flip a
	// byte in it. Frame layout: len, crc, then body.
	createLen := int(frameHeaderBytes) + int(le32(whole[0:]))
	corrupt := append([]byte(nil), whole...)
	corrupt[createLen+frameHeaderBytes+bodyHeaderBytes+1+10] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	f = mustOpen(t, dir, opts)
	defer f.Close()
	got := recovered(t, f)
	if !reflect.DeepEqual(got, wantAfterCreate) {
		t.Fatalf("corrupt middle record: recovered %+v, want the pre-corruption prefix %+v", got, wantAfterCreate)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(createLen) {
		t.Fatalf("log not truncated to valid prefix: size %v %v, want %d", st.Size(), err, createLen)
	}
	if reg.Get(MTruncations) == 0 {
		t.Error("CRC corruption must count under " + MTruncations)
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestDuplicateReplay imports the compaction crash window the shared-log
// layout could leave: snapshot.wal renamed into place over a
// session.wal that was never truncated, so every WAL record is already
// inside the snapshot. The watermark must make the import skip all of
// them — applying none twice — and no legacy file may remain.
func TestDuplicateReplay(t *testing.T) {
	dir := t.TempDir()
	src := chirp.Default()
	create, err := json.Marshal(createPayload{Meta: testMeta(1), Src: src, FS: 48000})
	if err != nil {
		t.Fatal(err)
	}
	wal := appendFrame(nil, 1, recCreate, "a", create)
	var audio []byte
	for i := 0; i < 5; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 32)
		wal = appendFrame(wal, uint64(2+i), recAudio, "a", chunk)
		audio = append(audio, chunk...)
	}
	var wm [8]byte
	binary.LittleEndian.PutUint64(wm[:], 6)
	snap := appendFrame(nil, 0, recSnapshot, "", wm[:])
	snap = appendFrame(snap, 0, recCreate, "a", create)
	snap = append(snap, wal[len(appendFrame(nil, 1, recCreate, "a", create)):]...)
	writeLegacy(t, dir, snap, wal)
	want := []Session{{ID: "a", Meta: testMeta(1), Src: src, FS: 48000, Audio: audio}}

	opts := Options{Fsync: FsyncNever}
	f := mustOpen(t, dir, opts)
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicate replay diverged:\n got %+v\nwant %+v", got, want)
	}
	requireLogs(t, dir, want)
	f = reopen(t, f, opts)
	defer f.Close()
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened import diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestPropertyMemoryOracle drives random event sequences into a
// FileStore — with random flushes and close/reopen cycles thrown in —
// and requires its recovered state to match the in-memory oracle
// applying the same events, for every seed, and its directory to hold
// one log per live session and nothing else.
func TestPropertyMemoryOracle(t *testing.T) {
	src := chirp.Default()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opts := Options{Fsync: FsyncNever}
			oracle := NewMemory()
			f := mustOpen(t, t.TempDir(), opts)
			defer func() { f.Close() }()

			ids := []string{"a", "b", "c", "d"}
			for step := 0; step < 300; step++ {
				id := ids[rng.Intn(len(ids))]
				var ferr, merr error
				switch op := rng.Intn(10); {
				case op < 2:
					meta := testMeta(rng.Intn(100))
					ferr = f.Create(id, meta, src, 48000)
					merr = oracle.Create(id, meta, src, 48000)
				case op < 6:
					chunk := make([]byte, 4*(1+rng.Intn(64)))
					rng.Read(chunk)
					ferr = f.AppendAudio(id, chunk)
					merr = oracle.AppendAudio(id, chunk)
				case op < 7:
					csv := []byte(fmt.Sprintf("ax\n%d\n", rng.Intn(1000)))
					ferr = f.SetIMU(id, csv)
					merr = oracle.SetIMU(id, csv)
				case op < 8:
					ferr = f.NoteLocate(id)
					merr = oracle.NoteLocate(id)
				case op < 9:
					ferr = f.Evict(id, "idle")
					merr = oracle.Evict(id, "idle")
				default:
					switch rng.Intn(2) {
					case 0:
						f = reopen(t, f, opts)
					case 1:
						if err := f.Flush(); err != nil {
							t.Fatalf("step %d: flush: %v", step, err)
						}
					}
					continue
				}
				if (ferr == nil) != (merr == nil) {
					t.Fatalf("step %d: error divergence: file=%v memory=%v", step, ferr, merr)
				}
			}

			f = reopen(t, f, opts)
			got := recovered(t, f)
			want := recovered(t, oracle)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state diverged from oracle:\n got %+v\nwant %+v", got, want)
			}
			requireLogs(t, f.Dir(), want)
		})
	}
}

// TestOversizedAppendRefused: a record longer than recovery accepts is
// refused before it touches the log — the log length and the state stay
// as they were, later appends still land, and a reopened store equals
// the Memory oracle.
func TestOversizedAppendRefused(t *testing.T) {
	src := chirp.Default()
	opts := Options{Fsync: FsyncNever}
	oracle := NewMemory()
	f := mustOpen(t, t.TempDir(), opts)
	defer func() { f.Close() }()
	both := func(what string, fn func(SessionStore) error) {
		t.Helper()
		if err := fn(f); err != nil {
			t.Fatalf("%s: file store: %v", what, err)
		}
		if err := fn(oracle); err != nil {
			t.Fatalf("%s: memory: %v", what, err)
		}
	}
	both("create", func(s SessionStore) error { return s.Create("s", testMeta(1), src, 48000) })
	both("append", func(s SessionStore) error { return s.AppendAudio("s", []byte{1, 2, 3, 4}) })

	logBytes := f.logs["s"].size
	// The smallest payload whose frame body exceeds maxRecordBytes. The
	// buffer is never written, so it costs address space, not memory.
	over := make([]byte, maxRecordBytes-bodyHeaderBytes-len("s")+1)
	if err := f.AppendAudio("s", over); err == nil {
		t.Fatal("oversized AppendAudio succeeded")
	}
	if err := f.SetIMU("s", over); err == nil {
		t.Fatal("oversized SetIMU succeeded")
	}
	if f.logs["s"].size != logBytes {
		t.Fatalf("log grew from %d to %d bytes on refused appends", logBytes, f.logs["s"].size)
	}
	if st, err := os.Stat(filepath.Join(f.Dir(), logName("s"))); err != nil || st.Size() != logBytes {
		t.Fatalf("session log: %v, want %d bytes", st, logBytes)
	}
	both("append after refusal", func(s SessionStore) error { return s.AppendAudio("s", []byte{5, 6, 7, 8}) })
	if got, want := recovered(t, f), recovered(t, oracle); !reflect.DeepEqual(got, want) {
		t.Fatalf("live state diverged from oracle:\n got %+v\nwant %+v", got, want)
	}

	f = reopen(t, f, opts)
	if got, want := recovered(t, f), recovered(t, oracle); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged from oracle:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := []struct {
		in       string
		policy   FsyncPolicy
		interval time.Duration
		ok       bool
	}{
		{"always", FsyncAlways, 0, true},
		{"none", FsyncNever, 0, true},
		{"100ms", FsyncInterval, 100 * time.Millisecond, true},
		{"2s", FsyncInterval, 2 * time.Second, true},
		{"0s", 0, 0, false},
		{"-5ms", 0, 0, false},
		{"often", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		policy, interval, err := ParseFsyncPolicy(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseFsyncPolicy(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (policy != c.policy || interval != c.interval) {
			t.Errorf("ParseFsyncPolicy(%q) = %v %v, want %v %v", c.in, policy, interval, c.policy, c.interval)
		}
	}
}

// TestFsyncIntervalFlush exercises the background-sync policy: appends
// mark the log dirty, the ticker (or an explicit Flush) syncs, and the
// state survives reopen.
func TestFsyncIntervalFlush(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond, Obs: obs.New(nil, reg)}
	f := mustOpen(t, t.TempDir(), opts)
	if err := f.Create("a", testMeta(1), chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get(MFsyncs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fsync observed under interval policy")
		}
		time.Sleep(time.Millisecond)
	}
	f = reopen(t, f, opts)
	if got := recovered(t, f); len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("interval-policy state lost: %+v", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err == nil {
		t.Error("Flush after Close must error")
	}
}

// TestFileStoreHoldsNoPayload pins the bytes the store holds: 32 MiB of
// audio across four sessions may grow the live heap by 2 MiB at most,
// and its second 16 MiB by 1 MiB at most — the payload lives in the
// logs. Recovery still equals the Memory oracle fed the same chunks.
func TestFileStoreHoldsNoPayload(t *testing.T) {
	const (
		sessions   = 4
		chunkBytes = 16 << 10
		chunks     = (32 << 20) / chunkBytes
		seed       = 7
	)
	f := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer f.Close()
	src := chirp.Default()
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
		if err := f.Create(ids[i], testMeta(i), src, 48000); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	chunk := make([]byte, chunkBytes)
	rng := rand.New(rand.NewSource(seed))
	base := heap()
	var half int64
	for k := 0; k < chunks; k++ {
		rng.Read(chunk)
		if err := f.AppendAudio(ids[k%sessions], chunk); err != nil {
			t.Fatal(err)
		}
		if k == chunks/2-1 {
			half = heap() - base
		}
	}
	grown := heap() - base
	t.Logf("heap grew %d KiB, %d KiB of it over the first half", grown>>10, half>>10)
	if grown > 2<<20 {
		t.Errorf("store heap grew %d KiB over %d MiB of audio, want ≤ 2048 KiB", grown>>10, chunks*chunkBytes>>20)
	}
	if grown-half > 1<<20 {
		t.Errorf("the second half of the audio grew the heap %d KiB (first half %d KiB): held bytes scale with the audio", (grown-half)>>10, half>>10)
	}

	oracle := NewMemory()
	for i, id := range ids {
		oracle.Create(id, testMeta(i), src, 48000)
	}
	rng = rand.New(rand.NewSource(seed))
	for k := 0; k < chunks; k++ {
		rng.Read(chunk)
		oracle.AppendAudio(ids[k%sessions], chunk)
	}
	if got, want := recovered(t, f), recovered(t, oracle); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered state diverged from the oracle")
	}
}

// TestConcatenatedSnapshotRecovers imports the older snapshot layout:
// snapshot.wal holding a session's audio as one concatenated frame with
// sequence 0, beside a session.wal holding one record the watermark
// covers and one it does not. The import recovers the same session,
// leaves no legacy file behind, and a reopen agrees.
func TestConcatenatedSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	src := chirp.Default()
	create, err := json.Marshal(createPayload{Meta: testMeta(1), Src: src, FS: 48000, Locates: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wm [8]byte
	binary.LittleEndian.PutUint64(wm[:], 5)
	snap := appendFrame(nil, 0, recSnapshot, "", wm[:])
	snap = appendFrame(snap, 0, recCreate, "a", create)
	snap = appendFrame(snap, 0, recAudio, "a", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	snap = appendFrame(snap, 0, recIMU, "a", []byte("ax\n1\n"))
	wal := appendFrame(nil, 5, recAudio, "a", []byte{5, 6, 7, 8})
	wal = appendFrame(wal, 6, recAudio, "a", []byte{9, 9, 9, 9})
	writeLegacy(t, dir, snap, wal)
	want := []Session{{
		ID: "a", Meta: testMeta(1), Src: src, FS: 48000, Locates: 2,
		Audio: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9},
		IMU:   []byte("ax\n1\n"),
	}}
	opts := Options{Fsync: FsyncNever}
	f := mustOpen(t, dir, opts)
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	requireLogs(t, dir, want)
	f = reopen(t, f, opts)
	defer f.Close()
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened after import %+v, want %+v", got, want)
	}
}

// TestEvictRemovesLog: evicting a session deletes its log from the
// directory under every fsync policy, and a reopen recovers only the
// sessions left.
func TestEvictRemovesLog(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Fsync: policy, FsyncInterval: time.Millisecond}
			f := mustOpen(t, dir, opts)
			defer func() { f.Close() }()
			for i, id := range []string{"a", "b"} {
				if err := f.Create(id, testMeta(i), chirp.Default(), 48000); err != nil {
					t.Fatal(err)
				}
				if err := f.AppendAudio(id, []byte{1, 2, 3, byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Evict("a", "explicit"); err != nil {
				t.Fatal(err)
			}
			want := recovered(t, f)
			if len(want) != 1 || want[0].ID != "b" {
				t.Fatalf("live state after evicting a: %+v", want)
			}
			requireLogs(t, dir, want)
			f = reopen(t, f, opts)
			if got := recovered(t, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened %+v, want %+v", got, want)
			}
			requireLogs(t, dir, want)
		})
	}
}

// TestTornTailIsolated: a torn tail in one session's log costs that
// session its torn record only; every other session recovers whole.
func TestTornTailIsolated(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Fsync: FsyncNever, Obs: obs.New(nil, reg)}
	dir := t.TempDir()
	f := mustOpen(t, dir, opts)
	oracle := NewMemory()
	src := chirp.Default()
	var cut int64
	for i, id := range []string{"a", "b", "c"} {
		for _, s := range []SessionStore{f, oracle} {
			if err := s.Create(id, testMeta(i), src, 48000); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendAudio(id, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				t.Fatal(err)
			}
			if err := s.SetIMU(id, []byte("ax\n1\n")); err != nil {
				t.Fatal(err)
			}
		}
		if id == "b" {
			cut = f.logs["b"].size
		}
		if err := f.AppendAudio(id, bytes.Repeat([]byte{9}, 64)); err != nil {
			t.Fatal(err)
		}
		if id != "b" {
			oracle.AppendAudio(id, bytes.Repeat([]byte{9}, 64))
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear b's last frame three bytes short of complete.
	path := filepath.Join(dir, logName("b"))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	f = mustOpen(t, dir, opts)
	defer f.Close()
	if got, want := recovered(t, f), recovered(t, oracle); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != cut {
		t.Fatalf("b's log: %v %v, want %d bytes", st, err, cut)
	}
	if got := reg.Get(MTruncations); got != 1 {
		t.Errorf("%s = %d, want 1", MTruncations, got)
	}
}

// TestOpenSkipsForeignEntries: Open reads only files named like logs. A
// lost+found directory and other files stay untouched; a log-named file
// that holds no create record naming it — empty, or another session's —
// is removed.
func TestOpenSkipsForeignEntries(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, Options{Fsync: FsyncNever})
	if err := f.Create("a", testMeta(1), chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	want := recovered(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "lost+found", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	create, err := json.Marshal(createPayload{Meta: testMeta(2), Src: chirp.Default(), FS: 48000})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"notes.txt":   []byte("keep me"),
		logName("y"):  appendFrame(nil, 0, recCreate, "x", create),
		logName("e"):  nil,
		logName("az"): appendFrame(nil, 0, recAudio, "az", []byte{1, 2, 3, 4}),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f = mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer f.Close()
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	requireLogs(t, dir, want)
	for _, name := range []string{"notes.txt", filepath.Join("lost+found", "x")} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestInterruptedImportRedone: while session.wal exists an import has
// not committed, so Open discards every log — a partial one for a
// surviving session, one for a session the legacy files evict, and one
// for a session they never mention — and imports again. Once
// session.wal is gone the import has committed, and the legacy files
// left are removed unread.
func TestInterruptedImportRedone(t *testing.T) {
	dir := t.TempDir()
	src := chirp.Default()
	create, err := json.Marshal(createPayload{Meta: testMeta(1), Src: src, FS: 48000})
	if err != nil {
		t.Fatal(err)
	}
	var wm [8]byte
	binary.LittleEndian.PutUint64(wm[:], 2)
	snap := appendFrame(nil, 0, recSnapshot, "", wm[:])
	snap = appendFrame(snap, 0, recCreate, "a", create)
	snap = appendFrame(snap, 2, recAudio, "a", []byte{1, 1, 1, 1})
	wal := appendFrame(nil, 1, recCreate, "a", create)
	wal = appendFrame(wal, 2, recAudio, "a", []byte{1, 1, 1, 1})
	wal = appendFrame(wal, 3, recCreate, "z", create)
	wal = appendFrame(wal, 4, recAudio, "z", []byte{7, 7, 7, 7})
	wal = appendFrame(wal, 5, recEvict, "z", []byte("explicit"))
	wal = appendFrame(wal, 6, recAudio, "a", []byte{2, 2, 2, 2})
	writeLegacy(t, dir, snap, wal)
	for id, data := range map[string][]byte{
		"a": appendFrame(nil, 1, recCreate, "a", create),
		"z": appendFrame(appendFrame(nil, 3, recCreate, "z", create), 4, recAudio, "z", []byte{7, 7, 7, 7}),
		"q": appendFrame(nil, 0, recCreate, "q", create),
	} {
		if err := os.WriteFile(filepath.Join(dir, logName(id)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []Session{{ID: "a", Meta: testMeta(1), Src: src, FS: 48000, Audio: []byte{1, 1, 1, 1, 2, 2, 2, 2}}}
	opts := Options{Fsync: FsyncNever}
	f := mustOpen(t, dir, opts)
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-import recovered %+v, want %+v", got, want)
	}
	requireLogs(t, dir, want)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A committed import's leftovers: another session in snapshot.wal
	// and a tmp file, with no session.wal beside them.
	other := appendFrame(nil, 0, recSnapshot, "", wm[:])
	other = appendFrame(other, 0, recCreate, "x", create)
	if err := os.WriteFile(filepath.Join(dir, legacySnapshot), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyTmp), other, 0o644); err != nil {
		t.Fatal(err)
	}
	f = mustOpen(t, dir, opts)
	defer f.Close()
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a committed import %+v, want %+v", got, want)
	}
	requireLogs(t, dir, want)
}

// failFsyncs swaps the fsync hook for the test's duration and returns
// the number of fsyncs still to fail; every other fsync runs.
func failFsyncs(t *testing.T) *atomic.Int64 {
	var fails atomic.Int64
	orig := fsyncFile
	fsyncFile = func(fh *os.File) error {
		for n := fails.Load(); n > 0; n = fails.Load() {
			if fails.CompareAndSwap(n, n-1) {
				return errors.New("injected fsync failure")
			}
		}
		return orig(fh)
	}
	t.Cleanup(func() { fsyncFile = orig })
	return &fails
}

// TestFailedAppendLeavesNoRecord: under FsyncAlways an append whose
// fsync fails returns an error with its record truncated away, so the
// client's retry leaves exactly one copy — live and after a reopen —
// equal to the Memory oracle. A create whose fsync fails leaves no log,
// and its retry creates the session.
func TestFailedAppendLeavesNoRecord(t *testing.T) {
	fails := failFsyncs(t)
	reg := obs.NewRegistry()
	opts := Options{Fsync: FsyncAlways, Obs: obs.New(nil, reg)}
	dir := t.TempDir()
	f := mustOpen(t, dir, opts)
	defer func() { f.Close() }()
	oracle := NewMemory()
	src := chirp.Default()
	both := func(what string, fn func(SessionStore) error) {
		t.Helper()
		if err := fn(f); err != nil {
			t.Fatalf("%s: file store: %v", what, err)
		}
		if err := fn(oracle); err != nil {
			t.Fatalf("%s: memory: %v", what, err)
		}
	}
	both("create", func(s SessionStore) error { return s.Create("a", testMeta(1), src, 48000) })
	both("append", func(s SessionStore) error { return s.AppendAudio("a", []byte{1, 2, 3, 4}) })

	size := f.logs["a"].size
	chunk := []byte{5, 6, 7, 8}
	fails.Store(1)
	if err := f.AppendAudio("a", chunk); err == nil {
		t.Fatal("append with a failing fsync succeeded")
	}
	if st, err := os.Stat(filepath.Join(dir, logName("a"))); err != nil || st.Size() != size || f.logs["a"].size != size {
		t.Fatalf("failed append left the log at %v %v (held %d), want %d bytes", st, err, f.logs["a"].size, size)
	}
	both("retried append", func(s SessionStore) error { return s.AppendAudio("a", chunk) })

	fails.Store(1)
	if err := f.Create("b", testMeta(2), src, 48000); err == nil {
		t.Fatal("create with a failing fsync succeeded")
	}
	if err := f.AppendAudio("b", chunk); err == nil {
		t.Fatal("a failed create left session b live")
	}
	requireLogs(t, dir, recovered(t, oracle))
	both("retried create", func(s SessionStore) error { return s.Create("b", testMeta(2), src, 48000) })

	if got := reg.Get(MFsyncFailures); got != 2 {
		t.Errorf("%s = %d, want 2", MFsyncFailures, got)
	}
	want := recovered(t, oracle)
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("live state diverged from oracle:\n got %+v\nwant %+v", got, want)
	}
	f = reopen(t, f, opts)
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged from oracle:\n got %+v\nwant %+v", got, want)
	}
}

// TestIntervalFsyncFailureRetried: a background fsync that fails is
// counted under MFsyncFailures and leaves its log dirty, so later ticks
// retry it until one succeeds — with no further append to prompt them.
func TestIntervalFsyncFailureRetried(t *testing.T) {
	fails := failFsyncs(t)
	fails.Store(3)
	reg := obs.NewRegistry()
	f := mustOpen(t, t.TempDir(), Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond, Obs: obs.New(nil, reg)})
	defer f.Close()
	if err := f.Create("a", testMeta(1), chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get(MFsyncs) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no successful fsync after %d failures", reg.Get(MFsyncFailures))
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Get(MFsyncFailures); got != 3 {
		t.Errorf("%s = %d, want 3", MFsyncFailures, got)
	}
	f.mu.Lock()
	dirty := f.logs["a"].dirty
	f.mu.Unlock()
	if dirty {
		t.Error("log still dirty after a successful retry")
	}
}

// TestConcurrentSessionsWithTick drives four sessions from four
// goroutines — creates, appends, locates, evicts and Flushes — while the
// interval tick fsyncs outside the store lock, then requires the
// recovered state to equal the Memory oracle fed the same events. Run
// under -race it pins the tick's and Flush's sharing of the logs.
func TestConcurrentSessionsWithTick(t *testing.T) {
	opts := Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond}
	f := mustOpen(t, t.TempDir(), opts)
	defer func() { f.Close() }()
	oracle := NewMemory()
	src := chirp.Default()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", g)
			for round := 0; round < 20; round++ {
				for _, s := range []SessionStore{f, oracle} {
					steps := []error{s.Create(id, testMeta(g), src, 48000)}
					for k := 0; k < 5; k++ {
						steps = append(steps, s.AppendAudio(id, bytes.Repeat([]byte{byte(g), byte(round), byte(k), 0}, 64)))
					}
					steps = append(steps, s.NoteLocate(id), s.Flush())
					if round%3 == 2 {
						steps = append(steps, s.Evict(id, "explicit"))
					}
					if err := errors.Join(steps...); err != nil {
						t.Errorf("session %s round %d: %v", id, round, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	want := recovered(t, oracle)
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("live state diverged from oracle:\n got %+v\nwant %+v", got, want)
	}
	f = reopen(t, f, opts)
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged from oracle:\n got %+v\nwant %+v", got, want)
	}
	requireLogs(t, f.Dir(), want)
}

// BenchmarkWALAppend pins the per-chunk append cost of the durable
// path: a 4 KiB audio chunk framed, CRC'd and written, under the two
// non-ticker fsync policies.
func BenchmarkWALAppend(b *testing.B) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"fsync=none", Options{Fsync: FsyncNever}},
		{"fsync=always", Options{Fsync: FsyncAlways}},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, err := Open(b.TempDir(), c.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			if err := f.Create("bench", testMeta(0), chirp.Default(), 48000); err != nil {
				b.Fatal(err)
			}
			chunk := bytes.Repeat([]byte{0x5a}, 4096)
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.AppendAudio("bench", chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Dir returns the store's data directory.
func (f *FileStore) Dir() string { return f.dir }

// writeLegacy writes a directory as the shared-log layout left it:
// snap as snapshot.wal (none when nil) and wal as session.wal.
func writeLegacy(t testing.TB, dir string, snap, wal []byte) {
	t.Helper()
	if snap != nil {
		if err := os.WriteFile(filepath.Join(dir, legacySnapshot), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, legacyWAL), wal, 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireLogs fails unless dir holds exactly one log per session in want
// and no legacy file.
func requireLogs(t testing.TB, dir string, want []Session) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, names []string
	for _, e := range entries {
		if isLogName(e.Name()) || e.Name() == legacyWAL || e.Name() == legacySnapshot || e.Name() == legacyTmp {
			got = append(got, e.Name())
		}
	}
	for _, s := range want {
		names = append(names, logName(s.ID))
	}
	sort.Strings(names)
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("directory holds %q, want the logs %q", got, names)
	}
}

package sessionstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// TestTornTailTruncated cuts a WAL mid-frame — the shape a crash during
// a write leaves behind — and requires recovery to keep every complete
// record, drop the torn tail, and keep accepting appends.
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

	path := filepath.Join(dir, walFile)
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
			t.Fatalf("cut %d: wal size %v %v, want %d", cut, st.Size(), err, len(whole))
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

	path := filepath.Join(dir, walFile)
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
		t.Fatalf("wal not truncated to valid prefix: size %v %v, want %d", st.Size(), err, createLen)
	}
	if reg.Get(MTruncations) == 0 {
		t.Error("CRC corruption must count under " + MTruncations)
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestDuplicateReplay reconstructs the compaction crash window: the
// snapshot was renamed into place but the WAL was not yet truncated, so
// every WAL record is already inside the snapshot. The watermark must
// make replay skip all of them — applying none twice.
func TestDuplicateReplay(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Fsync: FsyncNever, Obs: obs.New(nil, reg)}
	dir := t.TempDir()
	f := mustOpen(t, dir, opts)
	if err := f.Create("a", testMeta(1), chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := f.AppendAudio("a", bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	want := recovered(t, f)

	walPath := filepath.Join(dir, walFile)
	preCompact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo only the truncation step: snapshot in place, WAL holding the
	// full pre-compaction suffix again.
	if err := os.WriteFile(walPath, preCompact, 0o644); err != nil {
		t.Fatal(err)
	}

	f = mustOpen(t, dir, opts)
	defer f.Close()
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicate replay diverged:\n got %+v\nwant %+v", got, want)
	}
	if got := reg.Get(MSkipped); got == 0 {
		t.Error("watermark-skipped duplicates must count under " + MSkipped)
	}
}

// TestPropertyMemoryOracle drives random event sequences into a
// FileStore — with random compactions and close/reopen cycles thrown in
// — and requires its recovered state to match the in-memory oracle
// applying the same events, for every seed.
func TestPropertyMemoryOracle(t *testing.T) {
	src := chirp.Default()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// A tiny snapshot threshold on odd seeds forces mid-sequence
			// auto-compactions through the inline size trigger too.
			opts := Options{Fsync: FsyncNever}
			if seed%2 == 1 {
				opts.SnapshotBytes = 512
			}
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
					switch rng.Intn(3) {
					case 0:
						if err := f.Compact(); err != nil {
							t.Fatalf("step %d: compact: %v", step, err)
						}
					case 1:
						f = reopen(t, f, opts)
					case 2:
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
		})
	}
}

// TestOversizedAppendRefused: a record longer than recovery accepts is
// refused before it touches the log — the WAL length and the state stay
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

	walBytes := f.walBytes
	// The smallest payload whose frame body exceeds maxRecordBytes. The
	// buffer is never written, so it costs address space, not memory.
	over := make([]byte, maxRecordBytes-bodyHeaderBytes-len("s")+1)
	if err := f.AppendAudio("s", over); err == nil {
		t.Fatal("oversized AppendAudio succeeded")
	}
	if err := f.SetIMU("s", over); err == nil {
		t.Fatal("oversized SetIMU succeeded")
	}
	if f.walBytes != walBytes {
		t.Fatalf("WAL grew from %d to %d bytes on refused appends", walBytes, f.walBytes)
	}
	if st, err := os.Stat(filepath.Join(f.Dir(), walFile)); err != nil || st.Size() != walBytes {
		t.Fatalf("session.wal: %v, want %d bytes", st, walBytes)
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

// TestSnapshotCompaction checks the explicit compaction invariants: WAL
// shrinks to zero, a snapshot exists, state is unchanged, and appends
// after the snapshot land in the (new) WAL.
func TestSnapshotCompaction(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Fsync: FsyncNever, Obs: obs.New(nil, reg)}
	dir := t.TempDir()
	f := mustOpen(t, dir, opts)
	if err := f.Create("a", testMeta(1), chirp.Default(), 48000); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendAudio("a", bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	want := recovered(t, f)
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, walFile)); err != nil || st.Size() != 0 {
		t.Fatalf("wal after compact: %v %v, want empty", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if got := reg.Get(MSnapshots); got != 1 {
		t.Errorf("snapshots = %d, want 1", got)
	}
	if err := f.NoteLocate("a"); err != nil {
		t.Fatal(err)
	}
	f = reopen(t, f, opts)
	defer f.Close()
	got := recovered(t, f)
	want[0].Locates++
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction state diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestCompactionFailureKeepsAppend: an inline compaction that fails
// must not fail the append that triggered it — the record is already in
// the log, and a client retry would log it twice. Two obstacles fail
// every compaction: a non-empty directory where the tmp file goes (the
// first step fails) and one where snapshot.wal goes (the tmp file is
// written and synced, then the rename fails, so the state must still
// locate every frame in the WAL). The appends succeed, each failure is
// counted, a reopen once the obstacle is gone recovers them, and the
// next append past the threshold compacts. Every recovery equals the
// Memory oracle.
func TestCompactionFailureKeepsAppend(t *testing.T) {
	for _, blocked := range []string{snapshotTmp, snapshotFile} {
		t.Run(blocked, func(t *testing.T) {
			reg := obs.NewRegistry()
			opts := Options{Fsync: FsyncNever, SnapshotBytes: 256, Obs: obs.New(nil, reg)}
			dir := t.TempDir()
			f := mustOpen(t, dir, opts)
			defer func() { f.Close() }()
			obstacle := filepath.Join(dir, blocked)
			if err := os.MkdirAll(filepath.Join(obstacle, "blocker"), 0o755); err != nil {
				t.Fatal(err)
			}
			oracle := NewMemory()
			src := chirp.Default()
			if err := f.Create("a", testMeta(1), src, 48000); err != nil {
				t.Fatal(err)
			}
			oracle.Create("a", testMeta(1), src, 48000)
			created := reg.Get(MCompactionFailures)
			appendBoth := func(i int) {
				t.Helper()
				chunk := bytes.Repeat([]byte{byte(i)}, 128)
				if err := f.AppendAudio("a", chunk); err != nil {
					t.Fatalf("append %d with compaction failing: %v", i, err)
				}
				oracle.AppendAudio("a", chunk)
			}
			for i := 0; i < 4; i++ {
				appendBoth(i)
			}
			// The create frame and one chunk already pass the threshold, so
			// every append tries to compact.
			if got := reg.Get(MCompactionFailures) - created; got != 4 {
				t.Fatalf("%s rose by %d over 4 appends, want one per append", MCompactionFailures, got)
			}
			if got := reg.Get(MSnapshots); got != 0 {
				t.Fatalf("snapshots = %d with %s blocked", got, blocked)
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); blocked == snapshotFile && !os.IsNotExist(err) {
				t.Fatalf("a failed rename must remove the tmp file: stat %v", err)
			}
			want := recovered(t, oracle)
			if got := recovered(t, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("live state diverged from oracle:\n got %+v\nwant %+v", got, want)
			}
			if err := os.RemoveAll(obstacle); err != nil {
				t.Fatal(err)
			}
			f = reopen(t, f, opts)
			if got := recovered(t, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state diverged from oracle:\n got %+v\nwant %+v", got, want)
			}

			failures := reg.Get(MCompactionFailures)
			appendBoth(4)
			if reg.Get(MSnapshots) != 1 || reg.Get(MCompactionFailures) != failures {
				t.Fatalf("unblocked append: snapshots %d, failures %d→%d; want the retry to compact",
					reg.Get(MSnapshots), failures, reg.Get(MCompactionFailures))
			}
			if got, want := recovered(t, f), recovered(t, oracle); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-compaction state diverged from oracle:\n got %+v\nwant %+v", got, want)
			}
			f = reopen(t, f, opts)
			if got, want := recovered(t, f), recovered(t, oracle); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened post-compaction state diverged from oracle:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFileStoreHoldsNoPayload pins the bytes the store holds: 32 MiB of
// audio across four sessions, with inline compaction at the default
// threshold, may grow the live heap by 2 MiB at most, and its second
// 16 MiB by 1 MiB at most — the payload lives in the files.
// Recovery still equals the Memory oracle fed the same chunks.
func TestFileStoreHoldsNoPayload(t *testing.T) {
	const (
		sessions   = 4
		chunkBytes = 16 << 10
		chunks     = (32 << 20) / chunkBytes
		seed       = 7
	)
	reg := obs.NewRegistry()
	f := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever, Obs: obs.New(nil, reg)})
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
	if reg.Get(MSnapshots) < 3 {
		t.Errorf("snapshots = %d, want inline compaction to run", reg.Get(MSnapshots))
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

// TestConcatenatedSnapshotRecovers: snapshot.wal may hold a session's
// audio as one concatenated frame with sequence 0, as snapshots were
// once cut. Such a directory, with a WAL holding one record the
// watermark covers and one it does not, recovers to the same sessions,
// and still does after a compaction copies its frames.
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
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}
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
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("after compaction %+v, want %+v", got, want)
	}
	f = reopen(t, f, opts)
	defer f.Close()
	if got := recovered(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened after compaction %+v, want %+v", got, want)
	}
}

// BenchmarkWALAppend pins the per-chunk append cost of the durable
// path: a 4 KiB audio chunk framed, CRC'd and written, under the two
// non-ticker fsync policies.
func BenchmarkWALAppend(b *testing.B) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"fsync=none", Options{Fsync: FsyncNever, SnapshotBytes: -1}},
		{"fsync=always", Options{Fsync: FsyncAlways, SnapshotBytes: -1}},
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

// BenchmarkWALCompact times one compaction of 16 sessions × 2 MiB of
// audio held as 16 KiB chunks: every frame is copied from the open files
// through the store's one write buffer, so B/op stays flat whatever the
// audio held.
func BenchmarkWALCompact(b *testing.B) {
	f, err := Open(b.TempDir(), Options{Fsync: FsyncNever, SnapshotBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	chunk := bytes.Repeat([]byte{0x5a}, 16<<10)
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("bench-%02d", i)
		if err := f.Create(id, testMeta(i), chirp.Default(), 48000); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < (2<<20)/len(chunk); k++ {
			if err := f.AppendAudio(id, chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(16 << 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// Dir returns the store's data directory.
func (f *FileStore) Dir() string { return f.dir }

// Compact forces a snapshot + WAL truncation regardless of size.
func (f *FileStore) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	return f.compactLocked()
}

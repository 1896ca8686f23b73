package sessionstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hyperear/internal/chirp"
)

// realLog writes a create/audio/imu/locate/evict event sequence through
// a FileStore and returns the session.wal bytes and the frame offsets.
func realLog(t testing.TB) (log []byte, frames []int) {
	t.Helper()
	dir := t.TempDir()
	f, err := Open(dir, Options{Fsync: FsyncNever, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	src := chirp.Default()
	steps := []func() error{
		func() error { return f.Create("a", testMeta(1), src, 48000) },
		func() error { return f.AppendAudio("a", []byte{1, 2, 3, 4, 5, 6, 7, 8}) },
		func() error { return f.Create("b", testMeta(2), src, 44100) },
		func() error { return f.AppendAudio("b", []byte{9, 9, 9, 9}) },
		func() error { return f.SetIMU("a", []byte("# fs=100\nt,ax\n0,0\n")) },
		func() error { return f.AppendAudio("a", []byte{0, 1, 0, 1}) },
		func() error { return f.NoteLocate("a") },
		func() error { return f.Evict("b", "explicit") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, int(st.Size()))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	log, err = os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return log, frames
}

// realSnapshot compacts the real log's state into snapshot.wal and
// returns its bytes.
func realSnapshot(t testing.TB, log []byte) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(dir, Options{Fsync: FsyncNever, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// memoryOracle applies the records scanLog accepts from raw to a Memory
// store by its public methods, as Open replays them: a WAL skips records
// at or below sequence 0 (it has no snapshot watermark), a snapshot's
// header record only carries the watermark, and a create that does not
// decode is dropped. A snapshot's create carries the running locate
// count, set on the oracle directly.
func memoryOracle(t *testing.T, raw []byte, snapshot bool) []Session {
	t.Helper()
	m := NewMemory()
	_, _, err := scanLog(bytes.NewReader(raw), func(rec record) {
		if (snapshot && rec.typ == recSnapshot) || (!snapshot && rec.seq == 0) {
			return
		}
		payload := append([]byte(nil), rec.payload...)
		switch rec.typ {
		case recCreate:
			var p createPayload
			if json.Unmarshal(payload, &p) != nil {
				return
			}
			m.Create(rec.id, p.Meta, p.Src, p.FS)
			m.state[rec.id].Locates = p.Locates
		case recAudio:
			m.AppendAudio(rec.id, payload)
		case recIMU:
			m.SetIMU(rec.id, payload)
		case recLocate:
			m.NoteLocate(rec.id)
		case recEvict:
			m.Evict(rec.id, string(payload))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return recovered(t, m)
}

// FuzzWALReplay feeds arbitrary bytes to recovery as session.wal, or as
// snapshot.wal when snapshot is set. Open and Recover must not panic;
// unless Open errors, the recovered sessions equal the Memory oracle over
// the frames scanLog accepts, a second Open over the directory the first
// one truncated recovers them again, and so does a third after that
// store compacts — copying every recovered frame out of the fuzzed file
// into a new snapshot. Seeds: a real event log, its torn tail, a bad
// CRC, an oversized length header, a duplicated suffix, and the real
// log's snapshot.
func FuzzWALReplay(f *testing.F) {
	log, frames := realLog(f)
	f.Add(log, false)
	f.Add(log[:len(log)-3], false)
	badCRC := bytes.Clone(log)
	badCRC[frames[2]+5] ^= 0xff
	f.Add(badCRC, false)
	oversized := bytes.Clone(log)
	binary.LittleEndian.PutUint32(oversized[frames[3]:], maxRecordBytes)
	f.Add(oversized, false)
	f.Add(append(bytes.Clone(log), log[frames[1]:]...), false)
	snap := realSnapshot(f, log)
	f.Add(snap, true)
	f.Add(snap[:len(snap)-1], true)

	f.Fuzz(func(t *testing.T, raw []byte, snapshot bool) {
		dir := t.TempDir()
		name := walFile
		if snapshot {
			name = snapshotFile
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Fsync: FsyncNever, SnapshotBytes: -1}
		st, err := Open(dir, opts)
		if err != nil {
			return
		}
		got, err := st.Recover()
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if want := memoryOracle(t, raw, snapshot); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered %+v, oracle %+v", got, want)
		}
		st, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopening the recovered directory: %v", err)
		}
		again, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("second recovery %+v, first %+v", again, got)
		}
		if err := st.Compact(); err != nil {
			t.Fatalf("compacting the recovered store: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopening the compacted directory: %v", err)
		}
		compacted, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if !reflect.DeepEqual(compacted, got) {
			t.Fatalf("recovery after compaction %+v, first %+v", compacted, got)
		}
	})
}

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

// realLogs writes a create/audio/imu/locate/evict event sequence through
// a FileStore and returns session a's log, session b's log as it stood
// before its evict, and the offsets at which a's frames end.
func realLogs(t testing.TB) (a, b []byte, frames []int) {
	t.Helper()
	dir := t.TempDir()
	f, err := Open(dir, Options{Fsync: FsyncNever})
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
	for i, step := range steps {
		if i == len(steps)-1 {
			if b, err = os.ReadFile(filepath.Join(dir, logName("b"))); err != nil {
				t.Fatal(err)
			}
		}
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if n := int(f.logs["a"].size); len(frames) == 0 || frames[len(frames)-1] != n {
			frames = append(frames, n)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if a, err = os.ReadFile(filepath.Join(dir, logName("a"))); err != nil {
		t.Fatal(err)
	}
	return a, b, frames
}

// legacyLayout frames the same event sequence as the shared-log layout
// wrote it: session.wal with sequence numbers 1…8, and the snapshot.wal
// its compaction cut — the watermark header, then per live session a
// create carrying the locate count and its audio and IMU frames copied
// verbatim.
func legacyLayout(t testing.TB) (wal, snap []byte) {
	t.Helper()
	src := chirp.Default()
	enc := func(meta int, fs float64, locates uint64) []byte {
		p, err := json.Marshal(createPayload{Meta: testMeta(meta), Src: src, FS: fs, Locates: locates})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	events := []struct {
		typ     byte
		id      string
		payload []byte
	}{
		{recCreate, "a", enc(1, 48000, 0)},
		{recAudio, "a", []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{recCreate, "b", enc(2, 44100, 0)},
		{recAudio, "b", []byte{9, 9, 9, 9}},
		{recIMU, "a", []byte("# fs=100\nt,ax\n0,0\n")},
		{recAudio, "a", []byte{0, 1, 0, 1}},
		{recLocate, "a", nil},
		{recEvict, "b", []byte("explicit")},
	}
	for i, e := range events {
		wal = appendFrame(wal, uint64(i+1), e.typ, e.id, e.payload)
	}
	var wm [8]byte
	binary.LittleEndian.PutUint64(wm[:], uint64(len(events)))
	snap = appendFrame(nil, 0, recSnapshot, "", wm[:])
	snap = appendFrame(snap, 0, recCreate, "a", enc(1, 48000, 1))
	for _, i := range []int{1, 5, 4} {
		snap = appendFrame(snap, uint64(i+1), events[i].typ, "a", events[i].payload)
	}
	return wal, snap
}

// applyOracle applies one record to m by its public methods. A create
// that does not decode is dropped; a create's locates field seeds the
// count, set on the oracle directly.
func applyOracle(m *Memory, rec record) {
	payload := bytes.Clone(rec.payload)
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
}

// logOracle applies to m the records of raw, read as session id's log:
// nothing unless the first frame is a create of id that decodes, then
// id's records other than evicts.
func logOracle(t *testing.T, m *Memory, raw []byte, id string) {
	t.Helper()
	first, live := true, false
	_, _, err := scanLog(bytes.NewReader(raw), func(rec record) {
		if first {
			first = false
			live = rec.typ == recCreate && rec.id == id && json.Unmarshal(rec.payload, new(createPayload)) == nil
		}
		if live && rec.id == id && rec.typ != recEvict {
			applyOracle(m, rec)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// legacyOracle applies to m the shared-log layout's replay: every record
// of snap but its watermark header, then the records of wal above the
// watermark.
func legacyOracle(t *testing.T, m *Memory, wal, snap []byte) {
	t.Helper()
	var watermark uint64
	_, _, err := scanLog(bytes.NewReader(snap), func(rec record) {
		if rec.typ != recSnapshot {
			applyOracle(m, rec)
		} else if len(rec.payload) == 8 {
			watermark = binary.LittleEndian.Uint64(rec.payload)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = scanLog(bytes.NewReader(wal), func(rec record) {
		if rec.seq > watermark {
			applyOracle(m, rec)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzWALReplay feeds arbitrary bytes to recovery: as the logs of
// sessions a (raw) and b (snap), or, when legacy is set, as the
// shared-log layout's session.wal (raw) and snapshot.wal (snap) for
// Open to import. Open and Recover must not panic and Open must not
// fail; the recovered sessions equal the Memory oracle over the frames
// the rule accepts, the directory holds one log per recovered session
// and no legacy file, and a second Open over it recovers them again.
// Seeds: real logs, a's log torn, with a bad CRC, with an oversized
// length header, with frames the log rule skips (another session's
// audio, an evict) before one it applies, and with a second create that
// resets the session; the legacy layout's WAL alone, beside its snapshot
// (every WAL record a duplicate the watermark skips), and both torn.
func FuzzWALReplay(f *testing.F) {
	a, b, frames := realLogs(f)
	f.Add(a, b, false)
	f.Add(a[:len(a)-3], b, false)
	badCRC := bytes.Clone(a)
	badCRC[frames[1]+5] ^= 0xff
	f.Add(badCRC, b, false)
	oversized := bytes.Clone(a)
	binary.LittleEndian.PutUint32(oversized[frames[2]:], maxRecordBytes)
	f.Add(oversized, []byte(nil), false)
	skipped := appendFrame(bytes.Clone(a), 0, recAudio, "b", []byte{4, 4, 4, 4})
	skipped = appendFrame(skipped, 0, recEvict, "a", []byte("explicit"))
	f.Add(appendFrame(skipped, 0, recLocate, "a", nil), b, false)
	f.Add(append(bytes.Clone(a), a[:frames[1]]...), b, false)
	wal, snap := legacyLayout(f)
	f.Add(wal, []byte(nil), true)
	f.Add(wal, snap, true)
	f.Add(wal[:len(wal)-1], snap[:len(snap)-1], true)

	f.Fuzz(func(t *testing.T, raw, snap []byte, legacy bool) {
		dir := t.TempDir()
		m := NewMemory()
		files := map[string][]byte{logName("a"): raw, logName("b"): snap}
		if legacy {
			files = map[string][]byte{legacyWAL: raw, legacySnapshot: snap}
			legacyOracle(t, m, raw, snap)
		} else {
			logOracle(t, m, raw, "a")
			logOracle(t, m, snap, "b")
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{Fsync: FsyncNever}
		st, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got, err := st.Recover()
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if want := recovered(t, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered %+v, oracle %+v", got, want)
		}
		requireLogs(t, dir, got)
		st, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopening the recovered directory: %v", err)
		}
		again, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("second recovery %+v, first %+v", again, got)
		}
	})
}

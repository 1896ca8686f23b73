package sessionstore

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/obs"
	"hyperear/internal/sessionio"
)

// Log framing. Every record of a session log is one CRC-guarded frame:
//
//	offset  size  field
//	0       4     body length N (uint32 LE)
//	4       4     CRC-32 (IEEE) of the body
//	8       N     body
//
// and the body is:
//
//	0       8     sequence number (uint64 LE)
//	8       1     record type
//	9       1     session id length L
//	10      L     session id
//	10+L    …     payload (type-specific)
//
// A session log writes sequence number 0 and never reads it; only the
// legacy importer (importLegacy) reads the sequence numbers of the
// shared-log layout. Recovery stops at the first frame whose length is
// implausible or whose CRC disagrees — a torn tail after SIGKILL — and
// truncates the log back to the last valid frame.
const (
	recCreate byte = 1 // payload: createPayload JSON
	recAudio  byte = 2 // payload: raw interleaved stereo int16 LE PCM
	recIMU    byte = 3 // payload: raw sessionio IMU CSV
	recLocate byte = 4 // payload: empty
	// recEvict (payload: reason) and recSnapshot (id empty, payload the
	// uint64 LE sequence watermark) exist only in the legacy layout.
	recEvict    byte = 5
	recSnapshot byte = 6
)

const (
	frameHeaderBytes = 8
	bodyHeaderBytes  = 10 // seq + type + idLen
	// maxRecordBytes bounds a single frame; anything larger in a length
	// header is treated as corruption, not an allocation request, so
	// append refuses to log such a frame.
	maxRecordBytes = 1 << 28
	// MaxPayloadBytes is the largest AppendAudio or SetIMU payload one
	// frame holds whatever the session id (at most 255 bytes).
	MaxPayloadBytes = maxRecordBytes - bodyHeaderBytes - 255
	// scanChunkBytes is how much of a frame body recovery reads per step.
	scanChunkBytes = 1 << 20
)

// Filenames inside the data directory: one log per live session, plus
// the shared-log layout's files that importLegacy converts.
const (
	logSuffix      = ".log"
	legacyWAL      = "session.wal"
	legacySnapshot = "snapshot.wal"
	legacyTmp      = "snapshot.wal.tmp"
)

// logName is the file of session id's log: the hex SHA-256 of the id,
// which fits any id the store accepts (1–255 arbitrary bytes).
func logName(id string) string {
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:]) + logSuffix
}

// isLogName reports whether a directory entry is named like a log;
// everything else in the data directory (a mounted volume's lost+found,
// say) is left alone.
func isLogName(name string) bool {
	h, ok := strings.CutSuffix(name, logSuffix)
	_, err := hex.DecodeString(h)
	return ok && len(h) == 2*sha256.Size && err == nil
}

var errClosed = errors.New("sessionstore: store closed")

// fsyncFile syncs one session log to durable media; tests swap it to
// inject fsync failures.
var fsyncFile = (*os.File).Sync

// FsyncPolicy selects when log appends reach durable media.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: survives power loss, costs
	// one fsync per session mutation. The daemon's default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer (Options.FsyncInterval):
	// survives process death (SIGKILL) unconditionally — the data is in
	// the page cache — and bounds loss on power failure to one interval.
	FsyncInterval
	// FsyncNever leaves syncing to OS writeback.
	FsyncNever
)

// String renders the policy as the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "none"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag: "always", "none", or a
// flush interval such as "100ms" (selecting FsyncInterval).
func ParseFsyncPolicy(s string) (FsyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return FsyncAlways, 0, nil
	case "none":
		return FsyncNever, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("sessionstore: fsync policy %q (want always, none, or a positive interval like 100ms)", s)
	}
	return FsyncInterval, d, nil
}

// Options configures a FileStore. Zero values select the defaults
// noted on each field.
type Options struct {
	// Fsync is the append durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// Obs receives the server.store.* counters, gauges and the append
	// latency histogram; nil disables accounting.
	Obs *obs.Obs
}

// FileStore is the durable SessionStore: one append-only log per live
// session under a data directory. Create makes the log, AppendAudio,
// SetIMU and NoteLocate append to it, Evict deletes it, and Recover
// reads each log back; no payload is held between calls. Safe for
// concurrent use.
type FileStore struct {
	dir  string
	opts Options
	o    *obs.Obs

	// mu serializes the fields below and every sessionLog's size and
	// dirty.
	mu       sync.Mutex
	logs     map[string]*sessionLog // guarded by mu; the live sessions' logs by id
	bytes    int64                  // guarded by mu; the live logs' total length
	dirDirty bool                   // guarded by mu; a log was created or removed since the last directory fsync
	closed   bool                   // guarded by mu
	enc      []byte                 // guarded by mu; the append path's reusable encode buffer
	stopSync func()                 // guarded by mu; stops the interval tick and waits for it, nil without one
	// syncMu serializes syncDirty runs, so a Flush waits for the fsyncs
	// an interval tick has in flight.
	syncMu sync.Mutex
}

// sessionLog is one live session's open log. f never changes, so the
// interval tick fsyncs it without the store lock; size and dirty change
// only under FileStore.mu.
type sessionLog struct {
	id string
	f  *os.File
	// size is the acknowledged length: every byte before it is framed
	// and CRC-clean, and the next append lands at it.
	size int64
	// dirty marks appends not yet fsynced (FsyncInterval, FsyncNever).
	dirty bool
}

// createPayload is the JSON body of a create record. Its Locates field
// seeds the session's locate count (the legacy snapshots wrote it).
type createPayload struct {
	Meta    sessionio.Meta `json:"meta"`
	Src     chirp.Params   `json:"src"`
	FS      float64        `json:"fs"`
	Locates uint64         `json:"locates,omitempty"`
}

// record is one decoded frame.
type record struct {
	seq     uint64
	typ     byte
	id      string
	payload []byte
}

// appendFrame appends the framed record to dst and returns it.
func appendFrame(dst []byte, seq uint64, typ byte, id string, payload []byte) []byte {
	bodyLen := bodyHeaderBytes + len(id) + len(payload)
	var hdr [frameHeaderBytes + bodyHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(bodyLen))
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	hdr[16] = typ
	hdr[17] = byte(len(id))
	crc := crc32.NewIEEE()
	crc.Write(hdr[8:])
	crc.Write([]byte(id))
	crc.Write(payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc.Sum32())
	dst = append(dst, hdr[:]...)
	dst = append(dst, id...)
	dst = append(dst, payload...)
	return dst
}

// scanLog reads frames from r, invoking fn for each valid record. It
// returns the number of bytes consumed by valid frames and whether the
// scan stopped at a torn or corrupt frame (as opposed to a clean EOF).
// fn's record aliases a scratch buffer valid only during the call.
func scanLog(r io.Reader, fn func(rec record)) (valid int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [frameHeaderBytes]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, false, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, true, nil
			}
			return valid, false, err
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:]))
		if n < bodyHeaderBytes || n > maxRecordBytes {
			return valid, true, nil
		}
		// The body grows with the bytes that actually arrive, so a corrupt
		// length header costs what the file holds, not maxRecordBytes.
		body = body[:0]
		for len(body) < n {
			k := min(n-len(body), scanChunkBytes)
			body = slices.Grow(body, k)
			m, err := io.ReadFull(br, body[len(body):len(body)+k])
			body = body[:len(body)+m]
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, true, nil
			}
			if err != nil {
				return valid, false, err
			}
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:]) {
			return valid, true, nil
		}
		idLen := int(body[9])
		if bodyHeaderBytes+idLen > len(body) {
			return valid, true, nil
		}
		fn(record{
			seq:     binary.LittleEndian.Uint64(body[0:]),
			typ:     body[8],
			id:      string(body[bodyHeaderBytes : bodyHeaderBytes+idLen]),
			payload: body[bodyHeaderBytes+idLen:],
		})
		valid += int64(frameHeaderBytes) + int64(n)
	}
}

// replayLog reads the session log named name back. Its first frame must
// be a create whose id names the file and whose payload decodes, or the
// log holds no session (nil). Later frames of that id apply Memory's
// event semantics: a create that decodes resets the session (its locates
// field seeds the count), audio appends, IMU replaces, a locate counts.
// Frames of another id, evicts and unknown types are skipped: a log ends
// by being deleted, not by a record. Applied records count under
// MReplayed on o.
func replayLog(r io.Reader, name string, o *obs.Obs) (s *Session, valid int64, torn bool, err error) {
	first := true
	valid, torn, err = scanLog(r, func(rec record) {
		if first {
			first = false
			if rec.typ != recCreate || logName(rec.id) != name {
				return
			}
		} else if s == nil || rec.id != s.ID {
			return
		}
		switch rec.typ {
		case recCreate:
			var p createPayload
			if json.Unmarshal(rec.payload, &p) != nil {
				return
			}
			s = &Session{ID: rec.id, Meta: p.Meta, Src: p.Src, FS: p.FS, Locates: p.Locates}
		case recAudio:
			s.Audio = append(s.Audio, rec.payload...)
		case recIMU:
			s.IMU = nil
			if len(rec.payload) > 0 {
				s.IMU = bytes.Clone(rec.payload)
			}
		case recLocate:
			s.Locates++
		default:
			return
		}
		o.Inc(MReplayed)
	})
	return s, valid, torn, err
}

// Open loads (or initializes) the store under dir: it imports a
// directory the shared-log layout wrote (importLegacy), then reads every
// log back — truncating a torn tail to the last valid frame and removing
// a log that holds no session — and keeps each live log open for
// appends. See DESIGN.md §11 "Durability" for the recovery sequence.
func Open(dir string, opts Options) (*FileStore, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	if err := importLegacy(dir); err != nil {
		return nil, err
	}
	f := &FileStore{dir: dir, opts: opts, o: opts.Obs, logs: make(map[string]*sessionLog)}
	f.mu.Lock()
	err := f.loadLocked()
	if err == nil && opts.Fsync == FsyncInterval {
		stop, done := make(chan struct{}), make(chan struct{})
		f.stopSync = func() { close(stop); <-done }
		go func() {
			defer close(done)
			t := time.NewTicker(opts.FsyncInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					f.syncDirty()
				case <-stop:
					return
				}
			}
		}()
	}
	f.mu.Unlock()
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// loadLocked opens every log in the directory; callers hold f.mu.
func (f *FileStore) loadLocked() error {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return fmt.Errorf("sessionstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !isLogName(name) {
			continue
		}
		path := filepath.Join(f.dir, name)
		fh, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("sessionstore: %w", err)
		}
		s, valid, torn, err := replayLog(fh, name, f.o)
		switch {
		case err != nil:
			fh.Close()
		case s == nil:
			fh.Close()
			err = os.Remove(path)
			f.entriesChangedLocked()
		default:
			f.logs[s.ID] = &sessionLog{id: s.ID, f: fh, size: valid}
			f.bytes += valid
			if torn {
				f.o.Inc(MTruncations)
				err = fh.Truncate(valid)
			}
		}
		if err != nil {
			return fmt.Errorf("sessionstore: log %s: %w", name, err)
		}
	}
	f.o.Gauge(GSessions).Set(int64(len(f.logs)))
	f.o.Gauge(GWALBytes).Set(f.bytes)
	return nil
}

// syncDirty fsyncs every log written since it last ran, plus the
// directory when logs were created or removed; the interval tick, Flush
// and Close run it. It takes the dirty logs under the store lock and
// fsyncs them outside it, so appends do not wait on the disk. A failed
// fsync is counted, returned, and leaves its log dirty for the next run,
// unless the log was evicted meanwhile.
func (f *FileStore) syncDirty() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errClosed
	}
	var dirty []*sessionLog
	for _, sl := range f.logs {
		if sl.dirty {
			sl.dirty = false
			dirty = append(dirty, sl)
		}
	}
	dir := f.dirDirty
	f.dirDirty = false
	f.mu.Unlock()

	errs := make([]error, len(dirty))
	for i, sl := range dirty {
		if errs[i] = fsyncFile(sl.f); errs[i] == nil {
			f.o.Inc(MFsyncs)
		}
	}
	if dir {
		syncDir(f.dir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for i, sl := range dirty {
		if errs[i] != nil && f.logs[sl.id] == sl {
			sl.dirty = true
			f.o.Inc(MFsyncFailures)
			first = cmp.Or(first, fmt.Errorf("sessionstore: log fsync: %w", errs[i]))
		}
	}
	return first
}

// append applies one record through applyLocked, refusing first what the
// store must not log: an id outside [1,255] bytes, or a frame recovery
// would take for a torn tail and truncate, losing an acknowledged record
// at the next boot.
func (f *FileStore) append(typ byte, id string, payload []byte) error {
	if len(id) == 0 || len(id) > 255 {
		return fmt.Errorf("sessionstore: session id length %d out of range [1,255]", len(id))
	}
	if n := bodyHeaderBytes + len(id) + len(payload); n > maxRecordBytes {
		return fmt.Errorf("sessionstore: %d-byte record exceeds the %d-byte frame limit", n, maxRecordBytes)
	}
	start := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if err := f.applyLocked(record{typ: typ, id: id, payload: payload}); err != nil {
		return err
	}
	f.o.Observe(MAppendDuration, time.Since(start).Seconds())
	return nil
}

// applyLocked applies one record to the logs: a create makes its
// session's log, replacing a live one's; an evict closes and deletes the
// log (evicting an unknown id is a no-op, as in Memory); any other record
// is appended verbatim to its live session's log. Callers hold f.mu.
func (f *FileStore) applyLocked(rec record) error {
	sl := f.logs[rec.id]
	if sl != nil && (rec.typ == recCreate || rec.typ == recEvict) {
		delete(f.logs, rec.id)
		f.bytes -= sl.size
		sl.f.Close()
		err := os.Remove(filepath.Join(f.dir, logName(rec.id)))
		f.entriesChangedLocked()
		if err != nil {
			return fmt.Errorf("sessionstore: %w", err)
		}
		sl = nil
	}
	switch {
	case rec.typ == recEvict:
		return nil
	case rec.typ == recCreate:
		path := filepath.Join(f.dir, logName(rec.id))
		fh, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("sessionstore: %w", err)
		}
		sl = &sessionLog{id: rec.id, f: fh}
		if err := f.writeLocked(sl, rec); err != nil {
			fh.Close()
			os.Remove(path)
			return err
		}
		f.logs[rec.id] = sl
		f.entriesChangedLocked()
		return nil
	case sl == nil:
		return errUnknownSession
	}
	return f.writeLocked(sl, rec)
}

// writeLocked appends rec's frame to sl and, under FsyncAlways, fsyncs
// it. A failed write or fsync truncates the log back to its acknowledged
// length before the error returns, so a failed append leaves no record
// for the next boot to replay and a client's retry logs it once.
// Callers hold f.mu.
func (f *FileStore) writeLocked(sl *sessionLog, rec record) error {
	f.enc = appendFrame(f.enc[:0], rec.seq, rec.typ, rec.id, rec.payload)
	_, err := sl.f.WriteAt(f.enc, sl.size)
	if err == nil && f.opts.Fsync == FsyncAlways {
		if err = fsyncFile(sl.f); err != nil {
			f.o.Inc(MFsyncFailures)
		} else {
			f.o.Inc(MFsyncs)
		}
	}
	if err != nil {
		return fmt.Errorf("sessionstore: log append: %w", errors.Join(err, sl.f.Truncate(sl.size)))
	}
	sl.size += int64(len(f.enc))
	sl.dirty = f.opts.Fsync != FsyncAlways
	f.bytes += int64(len(f.enc))
	f.o.Inc(MAppends)
	f.o.Add(MAppendBytes, uint64(len(f.enc)))
	f.o.Gauge(GWALBytes).Set(f.bytes)
	if cap(f.enc) > 1<<25 {
		// One oversized chunk must not pin tens of megabytes of encode
		// scratch for the store's lifetime.
		f.enc = nil
	}
	return nil
}

// entriesChangedLocked makes a created or removed log durable by
// policy: the directory is fsynced now under FsyncAlways, else by the
// next tick or Flush. Callers hold f.mu.
func (f *FileStore) entriesChangedLocked() {
	if f.opts.Fsync == FsyncAlways {
		syncDir(f.dir)
	} else {
		f.dirDirty = true
	}
	f.o.Gauge(GSessions).Set(int64(len(f.logs)))
	f.o.Gauge(GWALBytes).Set(f.bytes)
}

// Create implements SessionStore. A live session under the id is reset,
// as Memory resets it; if the new log cannot be written, no session
// remains under the id.
func (f *FileStore) Create(id string, meta sessionio.Meta, src chirp.Params, fs float64) error {
	payload, err := json.Marshal(createPayload{Meta: meta, Src: src, FS: fs})
	if err != nil {
		return fmt.Errorf("sessionstore: encoding create: %w", err)
	}
	return f.append(recCreate, id, payload)
}

// AppendAudio implements SessionStore. raw goes to the log only; the
// caller may recycle it on return.
func (f *FileStore) AppendAudio(id string, raw []byte) error {
	return f.append(recAudio, id, raw)
}

// SetIMU implements SessionStore. csv goes to the log only.
func (f *FileStore) SetIMU(id string, csv []byte) error {
	return f.append(recIMU, id, csv)
}

// NoteLocate implements SessionStore.
func (f *FileStore) NoteLocate(id string) error {
	return f.append(recLocate, id, nil)
}

// Evict implements SessionStore: it deletes the session's log; the
// reason is not logged.
func (f *FileStore) Evict(id, reason string) error {
	return f.append(recEvict, id, []byte(reason))
}

// Recover implements SessionStore: the live sessions sorted by ID, each
// read back from its log.
func (f *FileStore) Recover() ([]Session, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errClosed
	}
	out := make([]Session, 0, len(f.logs))
	for id, sl := range f.logs {
		name := logName(id)
		s, valid, _, err := replayLog(io.NewSectionReader(sl.f, 0, sl.size), name, nil)
		if err != nil {
			return nil, fmt.Errorf("sessionstore: log %s: %w", name, err)
		}
		if s == nil || valid != sl.size {
			return nil, fmt.Errorf("sessionstore: log %s changed on disk", name)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Flush forces unsynced appends, and created or removed logs, to
// durable media, after any fsyncs an interval tick has in flight.
func (f *FileStore) Flush() error { return f.syncDirty() }

// Close stops the interval tick, then flushes and closes every log.
// Later calls fail with a closed error.
func (f *FileStore) Close() error {
	f.mu.Lock()
	stop := f.stopSync
	f.stopSync = nil
	f.mu.Unlock()
	if stop != nil {
		stop()
	}
	err := f.syncDirty()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	for _, sl := range f.logs {
		err = cmp.Or(err, sl.f.Close())
	}
	return err
}

// importLegacy converts a directory the shared-log layout wrote —
// session.wal, plus snapshot.wal once it had compacted — into one log
// per session. It replays that layout once with its own rule, the
// snapshot first (its header carries the sequence watermark), then the
// WAL records above the watermark, through applyLocked: a create resets
// its session, an evict removes it, and every other frame lands verbatim
// in its session's log. The logs and the directory are fsynced before
// session.wal is removed, which commits the import: while session.wal
// exists any log is a partial import, discarded and imported again;
// once it is gone the legacy files left are removed unread. This is the
// only code that reads sequence numbers or the watermark.
func importLegacy(dir string) error {
	walPath := filepath.Join(dir, legacyWAL)
	wal, err := os.Open(walPath)
	if errors.Is(err, os.ErrNotExist) {
		return removeLegacy(dir, legacySnapshot, legacyTmp)
	}
	if err != nil {
		return fmt.Errorf("sessionstore: %w", err)
	}
	defer wal.Close()
	im := &FileStore{dir: dir, opts: Options{Fsync: FsyncNever}, logs: make(map[string]*sessionLog)}
	im.mu.Lock()
	// Logs beside session.wal are a partial import: discard them.
	err = im.loadLocked()
	for id := range im.logs {
		err = cmp.Or(err, im.applyLocked(record{typ: recEvict, id: id}))
	}
	var watermark uint64
	apply := func(rec record) {
		// The shared-log replay skipped a create it could not decode.
		if err == nil && (rec.typ != recCreate || json.Unmarshal(rec.payload, new(createPayload)) == nil) {
			if aerr := im.applyLocked(rec); aerr != errUnknownSession {
				err = aerr
			}
		}
	}
	snap, serr := os.Open(filepath.Join(dir, legacySnapshot))
	if serr == nil {
		_, _, serr = scanLog(snap, func(rec record) {
			if rec.typ != recSnapshot {
				apply(rec)
			} else if len(rec.payload) == 8 {
				watermark = binary.LittleEndian.Uint64(rec.payload)
			}
		})
		snap.Close()
	} else if errors.Is(serr, os.ErrNotExist) {
		serr = nil
	}
	if serr == nil {
		_, _, serr = scanLog(wal, func(rec record) {
			if rec.seq > watermark {
				apply(rec)
			}
		})
	}
	im.mu.Unlock()
	if err = cmp.Or(serr, err, im.Close()); err != nil {
		return fmt.Errorf("sessionstore: importing %s: %w", legacyWAL, err)
	}
	return removeLegacy(dir, legacyWAL, legacySnapshot, legacyTmp)
}

// removeLegacy removes the named legacy files, in order, each removal
// made durable before the next.
func removeLegacy(dir string, names ...string) error {
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err == nil {
			syncDir(dir)
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("sessionstore: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a file created or removed in it is
// durable; best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

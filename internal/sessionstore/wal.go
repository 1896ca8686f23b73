package sessionstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/obs"
	"hyperear/internal/sessionio"
)

// WAL framing. Every record — in the log and in snapshots, which reuse
// the same framing — is one CRC-guarded frame:
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
// The sequence number makes replay idempotent: a snapshot carries the
// watermark of the last event it folded in, and recovery skips WAL
// records at or below it — so the crash window between "snapshot
// renamed" and "WAL truncated" (or an outright duplicated log suffix)
// replays to the same state. Recovery stops at the first frame whose
// length is implausible or whose CRC disagrees — a torn tail after
// SIGKILL — and truncates the log back to the last valid frame.
const (
	recCreate byte = 1 // payload: createPayload JSON
	recAudio  byte = 2 // payload: raw interleaved stereo int16 LE PCM
	recIMU    byte = 3 // payload: raw sessionio IMU CSV
	recLocate byte = 4 // payload: empty
	recEvict  byte = 5 // payload: reason string
	// recSnapshot is the first record of a snapshot file: id empty,
	// payload the uint64 LE sequence watermark the snapshot covers.
	recSnapshot byte = 6
)

const (
	frameHeaderBytes = 8
	bodyHeaderBytes  = 10 // seq + type + idLen
	// maxRecordBytes bounds a single frame; anything larger in a length
	// header is treated as corruption, not an allocation request.
	maxRecordBytes = 1 << 28
	// scanChunkBytes is how much of a frame body recovery reads per step.
	scanChunkBytes = 1 << 20
)

// Filenames inside the data directory.
const (
	walFile      = "session.wal"
	snapshotFile = "snapshot.wal"
	snapshotTmp  = "snapshot.wal.tmp"
)

var errClosed = errors.New("sessionstore: store closed")

// FsyncPolicy selects when WAL appends reach durable media.
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
	// SnapshotBytes compacts the WAL into a snapshot once it exceeds
	// this size (default 8 MiB; negative disables compaction).
	SnapshotBytes int64
	// Obs receives the server.store.* counters, gauges and the append
	// latency histogram; nil disables accounting.
	Obs *obs.Obs
}

func (o Options) normalize() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 8 << 20
	}
	return o
}

// FileStore is the durable SessionStore: an append-only WAL under a
// data directory, compacted into a snapshot when it grows past
// Options.SnapshotBytes. Safe for concurrent use.
type FileStore struct {
	dir  string
	opts Options
	o    *obs.Obs

	// mu serializes the log, the state map, and the counters below.
	mu sync.Mutex
	// wal is the open log file, positioned at walBytes.
	//
	// guarded by mu
	wal *os.File
	// walBytes is the valid log length (everything before it framed and
	// CRC-clean).
	//
	// guarded by mu
	walBytes int64
	// nextSeq numbers the next append.
	//
	// guarded by mu
	nextSeq uint64
	// state is the replayed session map the next snapshot is cut from.
	//
	// guarded by mu
	state map[string]*Session
	// dirty marks unsynced appends under FsyncInterval/FsyncNever.
	//
	// guarded by mu
	dirty bool
	// closed fails every later call fast.
	//
	// guarded by mu
	closed bool
	// enc is the append path's reusable encode buffer.
	//
	// guarded by mu
	enc []byte

	syncStop chan struct{}
	syncDone chan struct{}
}

// createPayload is the JSON body of a create record. Snapshots reuse it
// with the session's running Locates count folded in.
type createPayload struct {
	Meta    sessionio.Meta `json:"meta"`
	Src     chirp.Params   `json:"src"`
	FS      float64        `json:"fs"`
	Locates uint64         `json:"locates,omitempty"`
}

// record is one decoded WAL frame.
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

// applyRecord folds one replayed record into state. Records for unknown
// sessions (their create compacted away by a later evict, or a
// duplicated suffix) are skipped, not errors: replay is convergent.
func applyRecord(state map[string]*Session, rec record) error {
	switch rec.typ {
	case recCreate:
		var p createPayload
		if err := json.Unmarshal(rec.payload, &p); err != nil {
			return fmt.Errorf("sessionstore: create payload: %w", err)
		}
		applyCreate(state, Session{ID: rec.id, Meta: p.Meta, Src: p.Src, FS: p.FS, Locates: p.Locates})
	case recAudio:
		applyAudio(state, rec.id, rec.payload)
	case recIMU:
		applyIMU(state, rec.id, rec.payload)
	case recLocate:
		applyLocate(state, rec.id)
	case recEvict:
		delete(state, rec.id)
	}
	// Unknown types are skipped for forward compatibility.
	return nil
}

// Open loads (or initializes) the store under dir: replays the latest
// snapshot, then the WAL over it — truncating a torn tail back to the
// last valid frame — and leaves the log open for appends. See DESIGN.md
// §11 "Durability" for the full recovery sequence.
//
// The state map and log position are assembled in locals and handed to
// the FileStore fully formed: no other goroutine can see the store
// until Open returns.
func Open(dir string, opts Options) (*FileStore, error) {
	opts = opts.normalize()
	o := opts.Obs
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	// A leftover .tmp is an interrupted compaction that never renamed:
	// the previous snapshot + WAL are still authoritative.
	os.Remove(filepath.Join(dir, snapshotTmp))

	state := make(map[string]*Session)

	// 1. Snapshot: its header record carries the seq watermark of the
	// last WAL event folded in.
	var watermark uint64
	if sf, err := os.Open(filepath.Join(dir, snapshotFile)); err == nil {
		_, torn, serr := scanLog(sf, func(rec record) {
			if rec.typ == recSnapshot {
				if len(rec.payload) == 8 {
					watermark = binary.LittleEndian.Uint64(rec.payload)
				}
				return
			}
			applyRecord(state, rec)
			o.Inc(MReplayed)
		})
		sf.Close()
		if serr != nil {
			return nil, fmt.Errorf("sessionstore: snapshot: %w", serr)
		}
		if torn {
			// Snapshots are written to a tmp file and renamed whole, so a
			// torn snapshot means real media corruption; keep the valid
			// prefix and count it rather than refusing to boot.
			o.Inc(MTruncations)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}

	// 2. WAL: replay events newer than the watermark, then truncate any
	// torn tail so appends continue from a clean frame boundary.
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	maxSeq := watermark
	valid, torn, serr := scanLog(wal, func(rec record) {
		if rec.seq <= watermark {
			o.Inc(MSkipped)
			return
		}
		applyRecord(state, rec)
		o.Inc(MReplayed)
		if rec.seq > maxSeq {
			maxSeq = rec.seq
		}
	})
	if serr != nil {
		wal.Close()
		return nil, fmt.Errorf("sessionstore: wal: %w", serr)
	}
	if torn {
		o.Inc(MTruncations)
	}
	if st, err := wal.Stat(); err == nil && st.Size() != valid {
		if err := wal.Truncate(valid); err != nil {
			wal.Close()
			return nil, fmt.Errorf("sessionstore: truncating torn wal tail: %w", err)
		}
	}
	if _, err := wal.Seek(valid, io.SeekStart); err != nil {
		wal.Close()
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	o.Gauge(GWALBytes).Set(valid)
	o.Gauge(GSessions).Set(int64(len(state)))

	f := &FileStore{
		dir:      dir,
		opts:     opts,
		o:        o,
		wal:      wal,
		walBytes: valid,
		nextSeq:  maxSeq + 1,
		state:    state,
	}
	if opts.Fsync == FsyncInterval {
		f.syncStop = make(chan struct{})
		f.syncDone = make(chan struct{})
		go f.syncLoop()
	}
	return f, nil
}

// Dir returns the store's data directory.
func (f *FileStore) Dir() string { return f.dir }

func (f *FileStore) syncLoop() {
	defer close(f.syncDone)
	t := time.NewTicker(f.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			f.mu.Lock()
			if f.dirty && !f.closed {
				f.wal.Sync()
				f.dirty = false
				f.o.Inc(MFsyncs)
			}
			f.mu.Unlock()
		case <-f.syncStop:
			return
		}
	}
}

// append frames, writes, applies and (policy permitting) syncs one
// record. Live state is mutated only after the bytes are in the log —
// the WAL-first ordering the recovery contract needs — and through the
// same applyRecord path replay uses, so live and recovered state can
// never drift.
func (f *FileStore) append(typ byte, id string, payload []byte) error {
	if len(id) == 0 || len(id) > 255 {
		return fmt.Errorf("sessionstore: session id length %d out of range [1,255]", len(id))
	}
	start := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	// Validate against current state before touching the log so a bad
	// event (unknown id) costs nothing durable. Evicting an unknown id
	// is an idempotent no-op, matching Memory.
	switch typ {
	case recCreate:
	case recEvict:
		if _, ok := f.state[id]; !ok {
			return nil
		}
	default:
		if _, ok := f.state[id]; !ok {
			return errUnknownSession
		}
	}
	seq := f.nextSeq
	f.enc = appendFrame(f.enc[:0], seq, typ, id, payload)
	n, err := f.wal.Write(f.enc)
	if err != nil {
		// A short write leaves a torn frame; cut back to the last clean
		// boundary so the log stays scannable and the next append does
		// not land mid-frame.
		if n > 0 {
			f.wal.Truncate(f.walBytes)
			f.wal.Seek(f.walBytes, io.SeekStart)
		}
		return fmt.Errorf("sessionstore: wal append: %w", err)
	}
	f.nextSeq++
	f.walBytes += int64(len(f.enc))
	if f.opts.Fsync == FsyncAlways {
		if err := f.wal.Sync(); err != nil {
			return fmt.Errorf("sessionstore: wal fsync: %w", err)
		}
		f.o.Inc(MFsyncs)
	} else {
		f.dirty = true
	}
	if err := applyRecord(f.state, record{seq: seq, typ: typ, id: id, payload: payload}); err != nil {
		return err
	}
	f.o.Inc(MAppends)
	f.o.Add(MAppendBytes, uint64(len(f.enc)))
	if cap(f.enc) > 1<<25 {
		// One oversized chunk must not pin tens of megabytes of encode
		// scratch for the store's lifetime.
		f.enc = nil
	}
	f.o.Observe(MAppendDuration, time.Since(start).Seconds())
	f.o.Gauge(GWALBytes).Set(f.walBytes)
	f.o.Gauge(GSessions).Set(int64(len(f.state)))
	if f.opts.SnapshotBytes > 0 && f.walBytes > f.opts.SnapshotBytes {
		if err := f.compactLocked(); err != nil {
			return fmt.Errorf("sessionstore: compaction: %w", err)
		}
	}
	return nil
}

// Create implements SessionStore.
func (f *FileStore) Create(id string, meta sessionio.Meta, src chirp.Params, fs float64) error {
	payload, err := json.Marshal(createPayload{Meta: meta, Src: src, FS: fs})
	if err != nil {
		return fmt.Errorf("sessionstore: encoding create: %w", err)
	}
	return f.append(recCreate, id, payload)
}

// AppendAudio implements SessionStore. raw is copied; the caller may
// recycle it on return.
func (f *FileStore) AppendAudio(id string, raw []byte) error {
	return f.append(recAudio, id, raw)
}

// SetIMU implements SessionStore. csv is copied.
func (f *FileStore) SetIMU(id string, csv []byte) error {
	return f.append(recIMU, id, csv)
}

// NoteLocate implements SessionStore.
func (f *FileStore) NoteLocate(id string) error {
	return f.append(recLocate, id, nil)
}

// Evict implements SessionStore.
func (f *FileStore) Evict(id, reason string) error {
	return f.append(recEvict, id, []byte(reason))
}

// Recover implements SessionStore: the live sessions as deep copies,
// sorted by ID.
func (f *FileStore) Recover() ([]Session, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errClosed
	}
	return recoverState(f.state), nil
}

// Flush forces unsynced appends to durable media.
func (f *FileStore) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushLocked()
}

func (f *FileStore) flushLocked() error {
	if f.closed {
		return errClosed
	}
	if !f.dirty {
		return nil
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("sessionstore: wal fsync: %w", err)
	}
	f.dirty = false
	f.o.Inc(MFsyncs)
	return nil
}

// Compact forces a snapshot + WAL truncation regardless of size;
// exported for tests and operational tooling.
func (f *FileStore) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	return f.compactLocked()
}

// compactLocked cuts a snapshot of the current state and truncates the
// WAL. The sequence tolerates a crash at any step:
//
//  1. the full state is framed into snapshot.wal.tmp and fsynced
//     (crash here: tmp is ignored on the next Open);
//  2. tmp is renamed over snapshot.wal and the directory fsynced
//     (crash here: the new snapshot's watermark makes every WAL record
//     a skipped duplicate — same state);
//  3. the WAL is truncated to zero.
func (f *FileStore) compactLocked() error {
	watermark := f.nextSeq - 1
	tmpPath := filepath.Join(f.dir, snapshotTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], watermark)
	buf := appendFrame(nil, 0, recSnapshot, "", hdr[:])
	if _, err := w.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	ids := make([]string, 0, len(f.state))
	for id := range f.state {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s := f.state[id]
		payload, err := json.Marshal(createPayload{Meta: s.Meta, Src: s.Src, FS: s.FS, Locates: s.Locates})
		if err != nil {
			tmp.Close()
			return err
		}
		buf = appendFrame(buf[:0], 0, recCreate, id, payload)
		if len(s.Audio) > 0 {
			buf = appendFrame(buf, 0, recAudio, id, s.Audio)
		}
		if s.IMU != nil {
			buf = appendFrame(buf, 0, recIMU, id, s.IMU)
		}
		if _, err := w.Write(buf); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(f.dir, snapshotFile)); err != nil {
		return err
	}
	syncDir(f.dir)
	if err := f.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := f.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if f.opts.Fsync != FsyncNever {
		f.wal.Sync()
	}
	f.walBytes = 0
	f.dirty = false
	f.o.Inc(MSnapshots)
	f.o.Gauge(GWALBytes).Set(0)
	return nil
}

// Close flushes and closes the log. Later calls fail with a closed
// error.
func (f *FileStore) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	ferr := f.flushLocked()
	f.closed = true
	cerr := f.wal.Close()
	stop := f.syncStop
	f.mu.Unlock()
	if stop != nil {
		close(stop)
		<-f.syncDone
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// syncDir fsyncs a directory so a rename within it is durable;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

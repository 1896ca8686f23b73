package sessionstore

import (
	"bufio"
	"bytes"
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
// replays to the same state. Snapshot replay ignores sequence numbers:
// a snapshot's create records carry 0, and its audio and IMU frames are
// the log's own frames copied verbatim, sequence numbers included.
// Recovery stops at the first frame whose length is implausible or whose
// CRC disagrees — a torn tail after SIGKILL — and truncates the log back
// to the last valid frame.
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
	// header is treated as corruption, not an allocation request, so
	// append refuses to log such a frame.
	maxRecordBytes = 1 << 28
	// MaxPayloadBytes is the largest AppendAudio or SetIMU payload one
	// frame holds whatever the session id (at most 255 bytes).
	MaxPayloadBytes = maxRecordBytes - bodyHeaderBytes - 255
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
// Options.SnapshotBytes. It holds no payload bytes between calls: its
// state records where each session's frames lie in snapshot.wal and
// session.wal, and the files themselves hold the bytes. Safe for
// concurrent use.
type FileStore struct {
	dir  string
	opts Options
	o    *obs.Obs

	// mu serializes the log, the state map, and the counters below.
	mu sync.Mutex
	// wal is the open log file, positioned at walBytes; frames in it are
	// read back with ReadAt.
	//
	// guarded by mu
	wal *os.File
	// snap is snapshot.wal open for reading, nil until a snapshot exists.
	// After a compaction it is the renamed tmp file's own descriptor.
	//
	// guarded by mu
	snap *os.File
	// walBytes is the valid log length (everything before it framed and
	// CRC-clean).
	//
	// guarded by mu
	walBytes int64
	// nextSeq numbers the next append.
	//
	// guarded by mu
	nextSeq uint64
	// state is every live session's create parameters, locate count and
	// frame locations: what the next snapshot is cut from and what
	// Recover reads back.
	//
	// guarded by mu
	state fileState
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
	// snapW is compaction's one write buffer, reset onto each new
	// snapshot file; copied frames are read straight into it.
	//
	// guarded by mu
	snapW *bufio.Writer

	syncStop chan struct{}
	syncDone chan struct{}
}

// frameFile names the file a frame lies in.
type frameFile uint8

const (
	inWAL frameFile = iota
	inSnapshot
)

// frameLoc is where one whole frame — header, CRC and body — lies.
type frameLoc struct {
	off  int64
	size uint32 // frameHeaderBytes + body length; 0 marks no frame
	file frameFile
}

// fileSession is one live session as FileStore holds it: the create
// parameters and locate count, and the locations of its audio frames in
// append order and of its latest IMU frame. The payloads stay on disk.
type fileSession struct {
	meta    sessionio.Meta
	src     chirp.Params
	fs      float64
	locates uint64
	audio   []frameLoc
	imu     frameLoc
}

// fileState maps session id to its live state.
type fileState map[string]*fileSession

// createPayload is the JSON body of a create record. Snapshots reuse it
// with the session's running Locates count folded in.
type createPayload struct {
	Meta    sessionio.Meta `json:"meta"`
	Src     chirp.Params   `json:"src"`
	FS      float64        `json:"fs"`
	Locates uint64         `json:"locates,omitempty"`
}

// record is one decoded WAL frame and where it lies in the file it was
// read from or written to.
type record struct {
	seq     uint64
	typ     byte
	id      string
	payload []byte
	off     int64
	size    uint32
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
			off:     valid,
			size:    uint32(frameHeaderBytes + n),
		})
		valid += int64(frameHeaderBytes) + int64(n)
	}
}

// apply folds one record, whose frame lies in file in, into the state:
// Memory's event semantics over frame locations. Live appends and replay
// both run it, so live and recovered state cannot drift. Records for
// unknown sessions (their create compacted away by a later evict, or a
// duplicated suffix) are skipped, not errors: replay is convergent.
func (st fileState) apply(rec record, in frameFile) error {
	loc := frameLoc{off: rec.off, size: rec.size, file: in}
	switch rec.typ {
	case recCreate:
		var p createPayload
		if err := json.Unmarshal(rec.payload, &p); err != nil {
			return fmt.Errorf("sessionstore: create payload: %w", err)
		}
		st[rec.id] = &fileSession{meta: p.Meta, src: p.Src, fs: p.FS, locates: p.Locates}
	case recAudio:
		if s := st[rec.id]; s != nil {
			s.audio = append(s.audio, loc)
		}
	case recIMU:
		if s := st[rec.id]; s != nil {
			s.imu = loc
		}
	case recLocate:
		if s := st[rec.id]; s != nil {
			s.locates++
		}
	case recEvict:
		delete(st, rec.id)
	}
	// Unknown types are skipped for forward compatibility.
	return nil
}

// Open loads (or initializes) the store under dir: replays the latest
// snapshot, then the WAL over it — truncating a torn tail back to the
// last valid frame — and leaves the log open for appends. See DESIGN.md
// §11 "Durability" for the full recovery sequence.
//
// The state map, files and log position are assembled in locals and
// handed to the FileStore fully formed: no other goroutine can see the
// store until Open returns.
func Open(dir string, opts Options) (_ *FileStore, err error) {
	opts = opts.normalize()
	o := opts.Obs
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	// A leftover .tmp is an interrupted compaction that never renamed:
	// the previous snapshot + WAL are still authoritative.
	os.Remove(filepath.Join(dir, snapshotTmp))

	var snap, wal *os.File
	defer func() {
		if err != nil {
			for _, fh := range []*os.File{snap, wal} {
				if fh != nil {
					fh.Close()
				}
			}
		}
	}()
	state := make(fileState)

	// 1. Snapshot: its header record carries the seq watermark of the
	// last WAL event folded in. It stays open: Recover and compaction
	// read its frames back.
	var watermark uint64
	snap, err = os.Open(filepath.Join(dir, snapshotFile))
	switch {
	case err == nil:
		_, torn, serr := scanLog(snap, func(rec record) {
			if rec.typ == recSnapshot {
				if len(rec.payload) == 8 {
					watermark = binary.LittleEndian.Uint64(rec.payload)
				}
				return
			}
			state.apply(rec, inSnapshot)
			o.Inc(MReplayed)
		})
		if serr != nil {
			return nil, fmt.Errorf("sessionstore: snapshot: %w", serr)
		}
		if torn {
			// Snapshots are written to a tmp file and renamed whole, so a
			// torn snapshot means real media corruption; keep the valid
			// prefix and count it rather than refusing to boot.
			o.Inc(MTruncations)
		}
	case errors.Is(err, os.ErrNotExist):
		err = nil
	default:
		return nil, fmt.Errorf("sessionstore: %w", err)
	}

	// 2. WAL: replay events newer than the watermark, then truncate any
	// torn tail so appends continue from a clean frame boundary.
	wal, err = os.OpenFile(filepath.Join(dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	maxSeq := watermark
	valid, torn, serr := scanLog(wal, func(rec record) {
		if rec.seq <= watermark {
			o.Inc(MSkipped)
			return
		}
		state.apply(rec, inWAL)
		o.Inc(MReplayed)
		if rec.seq > maxSeq {
			maxSeq = rec.seq
		}
	})
	if serr != nil {
		return nil, fmt.Errorf("sessionstore: wal: %w", serr)
	}
	if torn {
		o.Inc(MTruncations)
	}
	if st, err := wal.Stat(); err == nil && st.Size() != valid {
		if err := wal.Truncate(valid); err != nil {
			return nil, fmt.Errorf("sessionstore: truncating torn wal tail: %w", err)
		}
	}
	if _, err := wal.Seek(valid, io.SeekStart); err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	o.Gauge(GWALBytes).Set(valid)
	o.Gauge(GSessions).Set(int64(len(state)))

	f := &FileStore{
		dir:      dir,
		opts:     opts,
		o:        o,
		wal:      wal,
		snap:     snap,
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
	// Recovery takes a longer frame for a torn tail and truncates it, so
	// logging one would lose an acknowledged record at the next boot.
	if n := bodyHeaderBytes + len(id) + len(payload); n > maxRecordBytes {
		return fmt.Errorf("sessionstore: %d-byte record exceeds the %d-byte frame limit", n, maxRecordBytes)
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
	seq, off := f.nextSeq, f.walBytes
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
	rec := record{seq: seq, typ: typ, id: id, payload: payload, off: off, size: uint32(len(f.enc))}
	if err := f.state.apply(rec, inWAL); err != nil {
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
		// The record is logged and applied: a failed compaction must not
		// fail the append, or a client retry would log it twice. The log
		// stays past the threshold, so the next append retries.
		if err := f.compactLocked(); err != nil {
			f.o.Inc(MCompactionFailures)
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

// Evict implements SessionStore.
func (f *FileStore) Evict(id, reason string) error {
	return f.append(recEvict, id, []byte(reason))
}

// Recover implements SessionStore: the live sessions sorted by ID, their
// audio and IMU read back from the frames the state locates, each
// frame's CRC checked again.
func (f *FileStore) Recover() ([]Session, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errClosed
	}
	ids := f.sortedIDsLocked()
	out := make([]Session, 0, len(ids))
	var frame []byte
	var err error
	for _, id := range ids {
		s := f.state[id]
		rs := Session{ID: id, Meta: s.meta, Src: s.src, FS: s.fs, Locates: s.locates}
		n := 0
		for _, loc := range s.audio {
			n += int(loc.size) - frameHeaderBytes - bodyHeaderBytes - len(id)
		}
		if n > 0 {
			rs.Audio = make([]byte, 0, n)
		}
		for _, loc := range s.audio {
			if frame, err = f.readFrameLocked(frame, loc); err != nil {
				return nil, err
			}
			rs.Audio = append(rs.Audio, framePayload(frame, id)...)
		}
		if s.imu.size > 0 {
			if frame, err = f.readFrameLocked(frame, s.imu); err != nil {
				return nil, err
			}
			if p := framePayload(frame, id); len(p) > 0 {
				rs.IMU = bytes.Clone(p)
			}
		}
		out = append(out, rs)
	}
	return out, nil
}

// sortedIDsLocked returns the live session ids in order; callers hold
// f.mu.
func (f *FileStore) sortedIDsLocked() []string {
	ids := make([]string, 0, len(f.state))
	for id := range f.state {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// fileLocked returns the open file a frame lies in; callers hold f.mu.
func (f *FileStore) fileLocked(loc frameLoc) *os.File {
	if loc.file == inSnapshot {
		return f.snap
	}
	return f.wal
}

// readFrameLocked reads the whole frame at loc into buf, grown as
// needed, and checks its CRC; callers hold f.mu.
func (f *FileStore) readFrameLocked(buf []byte, loc frameLoc) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(loc.size))[:loc.size]
	if _, err := f.fileLocked(loc).ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("sessionstore: reading frame at %d: %w", loc.off, err)
	}
	if crc32.ChecksumIEEE(buf[frameHeaderBytes:]) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, fmt.Errorf("sessionstore: frame at %d changed on disk", loc.off)
	}
	return buf, nil
}

// framePayload returns the payload of a whole frame of session id.
func framePayload(frame []byte, id string) []byte {
	return frame[frameHeaderBytes+bodyHeaderBytes+len(id):]
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

// compactLocked cuts a snapshot of the current state and truncates the
// WAL. The create records are re-encoded with the running locate
// counts; every audio and IMU frame the state locates is copied
// verbatim, header and CRC included, from the open snapshot or WAL
// through the one write buffer. The sequence tolerates a crash at any
// step:
//
//  1. the full state is framed into snapshot.wal.tmp and fsynced
//     (crash here: tmp is ignored on the next Open);
//  2. tmp is renamed over snapshot.wal and the directory fsynced
//     (crash here: the new snapshot's watermark makes every WAL record
//     a skipped duplicate — same state);
//  3. the WAL is truncated to zero.
//
// The state points at the new snapshot's frames only once the rename
// has succeeded; a compaction that fails before it leaves the state on
// the old snapshot and the WAL, whose descriptors stay open.
func (f *FileStore) compactLocked() error {
	tmpPath := filepath.Join(f.dir, snapshotTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	ids := f.sortedIDsLocked()
	frames, err := f.writeSnapshotLocked(tmp, ids)
	if err == nil {
		err = os.Rename(tmpPath, filepath.Join(f.dir, snapshotFile))
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	syncDir(f.dir)

	// Renamed: the snapshot holds every frame the state locates, at the
	// offsets writeSnapshotLocked laid them out at.
	if f.snap != nil {
		f.snap.Close()
	}
	f.snap = tmp
	for i, id := range ids {
		s, at := f.state[id], frames[i]
		for j, loc := range s.audio {
			s.audio[j] = frameLoc{off: at, size: loc.size, file: inSnapshot}
			at += int64(loc.size)
		}
		if s.imu.size > 0 {
			s.imu = frameLoc{off: at, size: s.imu.size, file: inSnapshot}
			at += int64(s.imu.size)
		}
	}

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

// writeSnapshotLocked writes the snapshot of the sessions ids to dst and
// fsyncs it: the watermark header, then per session its create record
// and its audio and IMU frames copied verbatim. frames[i] is the offset
// of ids[i]'s first copied frame; the rest follow it back to back.
// Callers hold f.mu.
func (f *FileStore) writeSnapshotLocked(dst *os.File, ids []string) ([]int64, error) {
	if f.snapW == nil {
		f.snapW = bufio.NewWriterSize(dst, 1<<16)
	} else {
		f.snapW.Reset(dst)
	}
	w := f.snapW
	var wm [8]byte
	binary.LittleEndian.PutUint64(wm[:], f.nextSeq-1)
	f.enc = appendFrame(f.enc[:0], 0, recSnapshot, "", wm[:])
	if _, err := w.Write(f.enc); err != nil {
		return nil, err
	}
	at := int64(len(f.enc))
	frames := make([]int64, len(ids))
	for i, id := range ids {
		s := f.state[id]
		payload, err := json.Marshal(createPayload{Meta: s.meta, Src: s.src, FS: s.fs, Locates: s.locates})
		if err != nil {
			return nil, err
		}
		f.enc = appendFrame(f.enc[:0], 0, recCreate, id, payload)
		if _, err := w.Write(f.enc); err != nil {
			return nil, err
		}
		at += int64(len(f.enc))
		frames[i] = at
		for _, loc := range s.audio {
			if err := f.copyFrameLocked(w, loc); err != nil {
				return nil, err
			}
			at += int64(loc.size)
		}
		if s.imu.size > 0 {
			if err := f.copyFrameLocked(w, s.imu); err != nil {
				return nil, err
			}
			at += int64(s.imu.size)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return frames, dst.Sync()
}

// copyFrameLocked appends the frame at loc to w verbatim, reading it
// from its file straight into w's free buffer space; callers hold f.mu.
func (f *FileStore) copyFrameLocked(w *bufio.Writer, loc frameLoc) error {
	src := f.fileLocked(loc)
	for off, end := loc.off, loc.off+int64(loc.size); off < end; {
		if w.Available() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		b := w.AvailableBuffer()[:min(int64(w.Available()), end-off)]
		if _, err := src.ReadAt(b, off); err != nil {
			return fmt.Errorf("sessionstore: reading frame at %d: %w", loc.off, err)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		off += int64(len(b))
	}
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
	if f.snap != nil {
		f.snap.Close()
	}
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

// Package sessionstore persists the HTTP service's streaming-ingest
// sessions across process restarts. The server keeps its live table
// (stream state, received PCM) in memory exactly as before; a
// SessionStore is the durability layer underneath it: every session
// mutation becomes an append-only event, and recovery-on-boot replays
// the events back into the table so an in-flight user survives a deploy
// or an OOM kill.
//
// Two implementations ship:
//
//   - Memory: the events applied to a process-local map that holds
//     every payload byte. No durability — it is the property-test
//     oracle (FileStore recovery must agree with it for any event
//     sequence) and a stand-in for tests.
//   - FileStore: one append-only log of CRC-framed records per live
//     session, with a configurable fsync policy. Evicting a session
//     deletes its log, so nothing is ever compacted. It keeps no payload
//     in memory: Recover reads each log back. At Open it imports a
//     directory the earlier shared-log layout wrote (session.wal plus
//     snapshot.wal). See wal.go for the framing and DESIGN.md §11
//     "Durability" for the recovery sequence.
//
// The server's default remains no store at all (nil interface): sessions
// live only in the process-memory table, today's behavior.
package sessionstore

import (
	"fmt"
	"sort"
	"sync"

	"hyperear/internal/chirp"
	"hyperear/internal/sessionio"
)

// SessionStore is the pluggable durability layer under the server's
// session table. Implementations must be safe for concurrent use, and
// must not retain the raw byte slices passed to AppendAudio/SetIMU past
// the call (callers hand in pooled request buffers).
//
// Write ordering contract: the server appends the event *before*
// applying the mutation to its in-memory table, so a crash between the
// two replays the event on boot rather than losing it.
type SessionStore interface {
	// Recover returns every live (non-evicted) session reconstructed
	// from durable state, sorted by ID. The server calls it once at
	// boot, before serving; the returned sessions do not alias store
	// internals.
	Recover() ([]Session, error)
	// Create registers a new session with its pipeline parameters.
	Create(id string, meta sessionio.Meta, src chirp.Params, fs float64) error
	// AppendAudio records one interleaved stereo int16 LE PCM chunk,
	// exactly as received on the wire.
	AppendAudio(id string, raw []byte) error
	// SetIMU records the session's IMU trace as the raw sessionio CSV.
	SetIMU(id string, csv []byte) error
	// NoteLocate records that a localization ran over the session
	// (audit trail; replay only bumps the session's Locates count).
	NoteLocate(id string) error
	// Evict removes the session from durable state with a reason code.
	// The server does NOT call this on shutdown drain — a drained
	// session must survive the restart; that is the point of the store.
	Evict(id, reason string) error
	// Flush forces buffered appends to durable media (fsync for
	// FileStore); the daemon calls it as part of the drain sequence.
	Flush() error
	// Close flushes and releases resources. The store is unusable after.
	Close() error
}

// Session is one recovered session: the pipeline parameters plus the
// raw bytes needed to rebuild the live state. The server replays Audio
// through the chunk path's ingest: the envelope feeds, mic1's inside its
// block-final feedback detector, whose blocks depend on the samples
// alone, so the rebuilt session reports and locates exactly as the
// uninterrupted one would.
type Session struct {
	ID   string
	Meta sessionio.Meta
	Src  chirp.Params
	FS   float64
	// Audio is the accumulated interleaved stereo int16 LE PCM, the
	// concatenation of every AppendAudio chunk in order.
	Audio []byte
	// IMU is the raw CSV trace, nil when never set.
	IMU []byte
	// Locates counts NoteLocate events (audit only; no pipeline state).
	Locates uint64
}

// clone deep-copies a session so recovery output cannot alias live
// store state that keeps growing.
func (s *Session) clone() Session {
	out := *s
	out.Audio = append([]byte(nil), s.Audio...)
	if s.IMU != nil {
		out.IMU = append([]byte(nil), s.IMU...)
	}
	return out
}

// Metric names the stores emit (FileStore only; Memory is silent).
// They live in the server.store.* family so /metrics renders them next
// to the server.* counters they extend.
const (
	// MAppends counts log record appends; MAppendBytes their framed volume.
	MAppends     = "server.store.appends"
	MAppendBytes = "server.store.append_bytes"
	// MAppendDuration is the per-append latency histogram in seconds
	// (includes the fsync under the "always" policy).
	MAppendDuration = "server.store.append.duration"
	// MFsyncs counts successful log fsyncs across policies.
	MFsyncs = "server.store.fsyncs"
	// MFsyncFailures counts log fsyncs that failed. Under FsyncAlways the
	// append fails with its record truncated away; under an interval the
	// log stays dirty and the next tick retries.
	MFsyncFailures = "server.store.fsync_failures"
	// MReplayed counts records applied while Open reads the logs back.
	MReplayed = "server.store.replayed"
	// MTruncations counts logs Open found with a torn or corrupt tail
	// and cut back to the last valid frame.
	MTruncations = "server.store.truncations"
	// GWALBytes is the live logs' total size; GSessions the sessions held
	// in durable state.
	GWALBytes = "server.store.wal_bytes"
	GSessions = "server.store.sessions"
)

// errUnknownSession is returned for events against an id the store has
// never seen (or has already evicted).
var errUnknownSession = fmt.Errorf("sessionstore: unknown session")

// Memory is the in-process SessionStore: the session events applied to
// a map that holds every payload byte, with no durability. A create
// resets any prior state under the id, appends accumulate, evict
// deletes; FileStore's log replay mirrors these semantics (replayLog).
// Memory is the oracle the store's property tests compare FileStore
// recovery against, and a cheap drop-in for tests that need a non-nil
// store.
type Memory struct {
	mu    sync.Mutex
	state map[string]*Session
}

// NewMemory returns an empty in-memory store. No production path calls
// it: it is the oracle of this package's store tests and the non-nil store
// of internal/server's recovery tests.
func NewMemory() *Memory {
	return &Memory{state: make(map[string]*Session)}
}

// Recover returns the live sessions (deep copies, sorted by ID).
func (m *Memory) Recover() ([]Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Session, 0, len(m.state))
	for _, s := range m.state {
		out = append(out, s.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Create implements SessionStore.
func (m *Memory) Create(id string, meta sessionio.Meta, src chirp.Params, fs float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state[id] = &Session{ID: id, Meta: meta, Src: src, FS: fs}
	return nil
}

// AppendAudio implements SessionStore.
func (m *Memory) AppendAudio(id string, raw []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.state[id]
	if s == nil {
		return errUnknownSession
	}
	s.Audio = append(s.Audio, raw...)
	return nil
}

// SetIMU implements SessionStore.
func (m *Memory) SetIMU(id string, csv []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.state[id]
	if s == nil {
		return errUnknownSession
	}
	s.IMU = append(s.IMU[:0], csv...)
	return nil
}

// NoteLocate implements SessionStore.
func (m *Memory) NoteLocate(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.state[id]
	if s == nil {
		return errUnknownSession
	}
	s.Locates++
	return nil
}

// Evict implements SessionStore.
func (m *Memory) Evict(id, reason string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.state, id)
	return nil
}

// Flush implements SessionStore (no-op).
func (m *Memory) Flush() error { return nil }

// Close implements SessionStore (no-op).
func (m *Memory) Close() error { return nil }

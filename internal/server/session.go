package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/dsp"
	"hyperear/internal/imu"
	"hyperear/internal/obs"
	"hyperear/internal/sessionio"
	"hyperear/internal/sessionstore"
)

// session is one live streaming-ingest session. Each chunk arrives as
// interleaved stereo int16 PCM. Each channel runs the locate's
// matched-filter blocks as soon as their input is complete: mic2 through
// an EnvelopeFeed, mic1 through a StreamDetector that owns mic1's feed
// and reports each beacon once the blocks around it are final — the
// client's feedback (the paper's direction-finding UX needs to know the
// beacon is audible before the user starts sliding). The PCM itself is
// kept for the locate's final pass (DESIGN.md §8, "Streamed sessions").
type session struct {
	id   string
	meta sessionio.Meta
	fs   float64
	// st persists mutations for crash recovery (nil disables); o tallies
	// store write failures. Both immutable after construction.
	st sessionstore.SessionStore
	o  *obs.Obs
	// loc is the Localizer the session's locate runs, resolved at
	// create; nil when it could not be built, and the locate then fails
	// on the same error /v1/locate reports. Immutable after construction.
	loc *core.Localizer

	// mu serializes every mutable field below: the stream state, the
	// PCM, and the lifecycle marks.
	mu sync.Mutex
	// det1 runs the session Localizer's matched-filter blocks over mic1
	// and reports its beacons, and feed2 runs them over mic2; both nil
	// when the Localizer could not be built (the session then streams
	// without feedback, and its locate fails before it would read them).
	//
	// guarded by mu
	det1 *chirp.StreamDetector
	// guarded by mu
	feed2 *dsp.EnvelopeFeed
	// pcm is the interleaved stereo int16 LE PCM received so far — the
	// bytes the WAL persists. It only grows: a locate reads a
	// capacity-capped prefix outside the lock, and nothing writes those
	// bytes again.
	//
	// guarded by mu
	pcm []byte
	// trace is the attached inertial trace.
	//
	// guarded by mu
	trace *imu.Trace
	// lastTouch is the idle-eviction clock.
	//
	// guarded by mu
	lastTouch time.Time
	// evicted marks a session removed from the table; every method
	// fails fast once set.
	//
	// guarded by mu
	evicted bool
}

// touch marks activity; callers hold s.mu.
func (s *session) touchLocked(now time.Time) { s.lastTouch = now }

// ingestLocked applies one decoded chunk — raw and its channels c1, c2
// — to the stream state: the PCM grows by raw, mic1 pushes through its
// detector and mic2 through its feed. The chunk path and recovery's
// replay of the persisted PCM both run it. It returns the beacons of
// the blocks the chunk made final, which the detector's next push
// reuses. Callers hold s.mu.
func (s *session) ingestLocked(ctx context.Context, raw []byte, c1, c2 []float64) []chirp.Detection {
	s.pcm = append(s.pcm, raw...)
	if s.det1 == nil {
		return nil
	}
	s.feed2.Push(c2)
	return s.det1.PushContext(ctx, c1)
}

// appendAudio decodes interleaved stereo int16 little-endian PCM and
// applies it to the session. It returns channel 1's newly final
// detections (the client-feedback channel), the samples its detector
// holds and the frames received, all read under the lock that applied
// the chunk. ctx carries the request's trace IDs into the detector's
// push spans.
//
// When a store is attached the chunk is WAL-appended before the
// in-memory state mutates: a crash between the two replays the chunk on
// boot instead of losing it, and a failed durable write leaves the
// session exactly as it was.
func (s *session) appendAudio(ctx context.Context, raw []byte, maxSamples int, now time.Time) (dets []chirp.Detection, buffered, consumed int, err error) {
	if len(raw) == 0 || len(raw)%4 != 0 {
		return nil, 0, 0, fmt.Errorf("audio chunk must be interleaved stereo int16 (got %d bytes)", len(raw))
	}
	c1, c2 := sessionio.DecodeStereo16(raw)
	defer sessionio.RecycleSamples(c1, c2)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return nil, 0, 0, errSessionGone
	}
	if len(s.pcm)/4+len(c1) > maxSamples {
		return nil, 0, 0, fmt.Errorf("%w: session exceeds %d samples", errSessionTooLarge, maxSamples)
	}
	if s.st != nil {
		if err := s.st.AppendAudio(s.id, raw); err != nil {
			s.o.Inc(MStoreErrors)
			return nil, 0, 0, fmt.Errorf("%w: %v", errStoreFailed, err)
		}
	}
	// PushContext reuses its returned slice on the detector's next push;
	// copy while the lock still excludes that push so the handler can
	// serialize the detections after unlocking.
	if d := s.ingestLocked(ctx, raw, c1, c2); len(d) > 0 {
		dets = append(dets, d...)
	}
	s.touchLocked(now)
	if s.det1 != nil {
		buffered = s.det1.Buffered()
	}
	return dets, buffered, len(s.pcm) / 4, nil
}

// setIMU attaches the session's inertial trace. raw is the CSV the
// trace was parsed from; with a store attached it is persisted (WAL
// first) so recovery can re-parse the identical bytes.
func (s *session) setIMU(tr *imu.Trace, raw []byte, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return errSessionGone
	}
	if s.st != nil {
		if err := s.st.SetIMU(s.id, raw); err != nil {
			s.o.Inc(MStoreErrors)
			return fmt.Errorf("%w: %v", errStoreFailed, err)
		}
	}
	s.trace = tr
	s.touchLocked(now)
	return nil
}

// snapshotLocate returns what a locate reads, taken together under the
// lock: the PCM so far, capped at its length so nothing can write
// through it, each channel's envelope prefix over that PCM (zero when
// the session streams without a Localizer), and the IMU trace. The
// caller's locate reads the PCM outside the lock while more audio
// arrives.
func (s *session) snapshotLocate(now time.Time) (pcm []byte, pre [2]dsp.EnvelopePrefix, tr *imu.Trace, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return nil, pre, nil, errSessionGone
	}
	if len(s.pcm) == 0 {
		return nil, pre, nil, fmt.Errorf("session has no audio")
	}
	if s.trace == nil {
		return nil, pre, nil, fmt.Errorf("session has no IMU trace")
	}
	if s.det1 != nil {
		pre = [2]dsp.EnvelopePrefix{s.det1.Prefix(), s.feed2.Prefix()}
	}
	if s.st != nil {
		// The locate event is audit trail, not state the pipeline needs;
		// a write failure must not block the localization.
		if err := s.st.NoteLocate(s.id); err != nil {
			s.o.Inc(MStoreErrors)
		}
	}
	s.touchLocked(now)
	return s.pcm[:len(s.pcm):len(s.pcm)], pre, s.trace, nil
}

var (
	errSessionGone     = fmt.Errorf("session not found or evicted")
	errSessionTooLarge = fmt.Errorf("session audio limit exceeded")
	errTableFull       = fmt.Errorf("session table full")
	errStoreFailed     = fmt.Errorf("session store write failed")
)

// sessionTable owns every live session: bounded capacity, idle eviction,
// and gauge accounting. All methods are safe for concurrent use.
type sessionTable struct {
	mu sync.Mutex
	// m maps session id -> live session.
	//
	// guarded by mu
	m map[string]*session
	// max, idle, active, st, and o are immutable after construction.
	max    int
	idle   time.Duration
	active *obs.Gauge
	st     sessionstore.SessionStore
	o      *obs.Obs
}

func newSessionTable(maxSessions int, idle time.Duration, st sessionstore.SessionStore, o *obs.Obs) *sessionTable {
	return &sessionTable{
		m:      make(map[string]*session),
		max:    maxSessions,
		idle:   idle,
		active: o.Gauge(GSessionsActive),
		st:     st,
		o:      o,
	}
}

// newID returns a 128-bit random hex session id.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// newSession builds a session streaming src at fs, refusing a beacon no
// detector can run. When loc is non-nil it gets loc's blocks per
// channel: mic1's feedback detector, attached to the table's obs hook so
// streaming ingest shows up in the same registry and traces as the
// batch path, and mic2's feed. The session keeps loc.
func (t *sessionTable) newSession(id string, meta sessionio.Meta, src chirp.Params, fs float64, loc *core.Localizer, now time.Time) (*session, error) {
	if err := src.ValidateAt(fs); err != nil {
		return nil, err
	}
	s := &session{id: id, meta: meta, fs: fs, st: t.st, o: t.o, loc: loc, lastTouch: now}
	if loc != nil {
		s.det1, s.feed2 = loc.NewStreamDetector(), loc.NewEnvelopeFeed()
		s.det1.SetObs(t.o)
	}
	return s, nil
}

// create registers a new session streaming src at fs. loc is the
// Localizer its locate will run, nil when that could not be built.
func (t *sessionTable) create(meta sessionio.Meta, src chirp.Params, fs float64, loc *core.Localizer, now time.Time) (*session, error) {
	id, err := newID()
	if err != nil {
		return nil, err
	}
	s, err := t.newSession(id, meta, src, fs, loc, now)
	if err != nil {
		return nil, err
	}
	if t.st != nil {
		// WAL-first: the create must be durable before the session can
		// accept audio, or a crash after the first chunk would replay
		// audio for an id the log never created.
		if err := t.st.Create(id, meta, src, fs); err != nil {
			t.o.Inc(MStoreErrors)
			return nil, fmt.Errorf("%w: %v", errStoreFailed, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) >= t.max {
		// Capacity pressure: evict the stalest session rather than refuse
		// — an abandoned upload should never block a live user.
		stalest := ""
		var oldest time.Time
		for id, cand := range t.m {
			cand.mu.Lock()
			last := cand.lastTouch
			cand.mu.Unlock()
			if stalest == "" || last.Before(oldest) {
				stalest, oldest = id, last
			}
		}
		if stalest == "" {
			return nil, errTableFull
		}
		t.evictLocked(stalest, EvictCapacity)
	}
	t.m[s.id] = s
	t.active.Add(1)
	t.o.Inc(MSessCreated)
	return s, nil
}

// get returns the live session with the given id.
func (t *sessionTable) get(id string) (*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.m[id]
	if s == nil {
		return nil, errSessionGone
	}
	return s, nil
}

// evict removes a session, tallying the reason; returns false when the id
// is unknown (already evicted).
func (t *sessionTable) evict(id, reason string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictLocked(id, reason)
}

func (t *sessionTable) evictLocked(id, reason string) bool {
	s := t.m[id]
	if s == nil {
		return false
	}
	delete(t.m, id)
	s.mu.Lock()
	s.evicted = true
	s.mu.Unlock()
	if t.st != nil && reason != EvictShutdown {
		// Shutdown evictions stay in the store on purpose: surviving the
		// restart that follows a drain is the whole point of durability.
		// Everything else (idle, capacity, explicit) is gone for good,
		// best-effort — a store error must not resurrect the session.
		if err := t.st.Evict(id, reason); err != nil {
			t.o.Inc(MStoreErrors)
		}
	}
	t.active.Add(-1)
	t.o.Inc(MSessEvictedPrefix + reason)
	return true
}

// insertRecovered rebuilds one persisted session into the live table:
// the persisted PCM replays through the chunk path's decode and ingest
// (the blocks, and so the detector's final blocks and their detections,
// depend on the samples alone, so the resumed feedback agrees with the
// uninterrupted run's), and the IMU CSV is re-parsed before the session
// goes live. loc is as for create.
func (t *sessionTable) insertRecovered(rs sessionstore.Session, loc *core.Localizer, now time.Time) error {
	if len(rs.Audio)%4 != 0 {
		return fmt.Errorf("persisted audio is %d bytes, not whole stereo frames", len(rs.Audio))
	}
	s, err := t.newSession(rs.ID, rs.Meta, rs.Src, rs.FS, loc, now)
	if err != nil {
		return fmt.Errorf("rebuilding stream state: %w", err)
	}
	var tr *imu.Trace
	if rs.IMU != nil {
		tr, err = sessionio.ReadIMU(bytes.NewReader(rs.IMU))
		if err != nil {
			return fmt.Errorf("re-parsing imu: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = tr
	if len(rs.Audio) > 0 {
		c1, c2 := sessionio.DecodeStereo16(rs.Audio)
		s.ingestLocked(context.Background(), rs.Audio, c1, c2)
		sessionio.RecycleSamples(c1, c2)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.m[rs.ID]; exists {
		return fmt.Errorf("duplicate recovered session id %q", rs.ID)
	}
	if len(t.m) >= t.max {
		return errTableFull
	}
	t.m[rs.ID] = s
	t.active.Add(1)
	return nil
}

// sweepIdle evicts every session idle longer than the table's idle bound;
// returns how many were evicted. The server's janitor calls this on a
// timer; tests call it directly with a synthetic now.
func (t *sessionTable) sweepIdle(now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, s := range t.m {
		s.mu.Lock()
		idle := now.Sub(s.lastTouch)
		s.mu.Unlock()
		if idle > t.idle {
			t.evictLocked(id, EvictIdle)
			n++
		}
	}
	return n
}

// shutdown evicts every remaining session (reason "shutdown").
func (t *sessionTable) shutdown() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.m {
		t.evictLocked(id, EvictShutdown)
	}
}

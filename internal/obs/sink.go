package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// JSONLSink writes one JSON object per completed span to an io.Writer —
// the trace format behind the CLIs' -trace flag. A mutex serializes
// concurrent emits (pipeline stages end spans from worker goroutines);
// the caller owns the writer and closes it after the run.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps a writer. Encoding errors are sticky and readable
// via Err — a trace is diagnostics, so a failed write must not abort the
// localization it was observing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes the event as one JSON line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Err reports the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// MemSink collects events in memory for tests.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *MemSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything emitted so far. No production path
// calls it: it is how the span tests of several packages (the root
// package, internal/obs, internal/server) read what a pipeline emitted.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

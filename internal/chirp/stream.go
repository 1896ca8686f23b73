package chirp

import (
	"context"
	"math"

	"hyperear/internal/obs"
)

// Metric names the StreamDetector emits when an obs hook is attached
// (SetObs): emitted detections, cross-block dedupe hits, and detections
// withheld past the emission horizon awaiting more context.
const (
	MStreamEmitted  = "chirp.stream.emitted"
	MStreamDeduped  = "chirp.stream.deduped"
	MStreamWithheld = "chirp.stream.withheld"
)

// StreamDetector is an incremental version of Detector for live capture:
// audio arrives in arbitrary-size chunks (as from a phone's audio
// callback) and detections are emitted with absolute timestamps as soon
// as enough context exists to time them reliably. Internally it buffers,
// and carries enough tail across block boundaries that a chirp straddling
// two chunks is never missed or double-reported, and that detections agree
// with a batch run over the whole stream regardless of how the samples
// were chunked.
//
// The matched filter is overlap-save: envelope lags, once complete (the
// full template fit inside the buffer), are never recomputed when more
// audio arrives, so each pass extends the cached decimated envelope only
// over the new samples with fixed-size band-limited blocks against a
// template spectrum computed once for the whole stream — the batch
// detector's kernel, on the same absolute D-lag grid. Only the
// threshold/peak-picking stages rerun over the sliding window, and
// accepted peaks are timed from exact sums over the buffered samples; the
// per-pass transform cost is proportional to the new audio, not the
// buffer.
type StreamDetector struct {
	det *Detector
	fs  float64
	// buf holds unprocessed samples; absOffset is the absolute sample
	// index of buf[0] since the start of the stream.
	buf       []float64
	absOffset int
	// blockSize is how many samples trigger a detection pass.
	blockSize int
	// tailKeep is how many trailing samples are carried to the next pass
	// (a full template plus the non-maximum-suppression window plus
	// margin, so boundary chirps get a clean peak and keep competing with
	// neighbours exactly as they would in a batch run).
	tailKeep int
	// minSepSamples is the detector's minimum detection spacing in
	// samples, mirrored here for the emission horizon.
	minSepSamples int
	// emitted holds the absolute timestamps of recently emitted
	// detections for cross-block dedupe. A single last-emission timestamp
	// is not enough: a chirp carried in the tail overlap must be matched
	// against its own prior emission, not merely the most recent one, and
	// a distinct later chirp must never be confused with a re-detection.
	// Entries too old to ever match again are pruned.
	emitted []float64
	// env caches the matched filter's decimated Hilbert envelope aligned
	// with buf: env[m] is the envelope at lag buf[D·m], and absOffset is
	// kept a multiple of D so the grid is the batch detector's absolute
	// one. The leading envValid lags are complete (computed with the
	// full template inside the buffer) and are never recomputed; lags
	// beyond that were computed against implicit zero padding — exactly
	// what a batch run over the current buffer would produce — and are
	// recomputed once more audio arrives.
	env      []float64
	envValid int
	// scratch and dets are the detection pass's reusable working set; out
	// is the emission slice handed back from Push, reused across pushes
	// (see PushContext's aliasing contract).
	scratch DetectScratch
	dets    []Detection
	out     []Detection
	// obs counts emissions, dedupe hits, and withheld detections; nil
	// (the default) disables at zero cost.
	obs *obs.Obs
}

// SetObs attaches an observability hook for the MStream* counters. Call
// it before the first Push; nil detaches.
func (s *StreamDetector) SetObs(o *obs.Obs) { s.obs = o }

// NewStreamDetector wraps a Detector for incremental use.
func NewStreamDetector(p Params, fs float64) (*StreamDetector, error) {
	det, err := NewDetector(p, fs)
	if err != nil {
		return nil, err
	}
	refLen := len(det.ref)
	minSep := int(det.MinSeparation * fs)
	if minSep < 1 {
		minSep = 1
	}
	tailKeep := 2*refLen + minSep
	blockSize := 8 * refLen
	if blockSize < 2*tailKeep {
		// Long beacon periods push the NMS window past the default block;
		// grow the block so every pass still makes progress.
		blockSize = 2 * tailKeep
	}
	return &StreamDetector{
		det:           det,
		fs:            fs,
		blockSize:     blockSize,
		tailKeep:      tailKeep,
		minSepSamples: minSep,
	}, nil
}

// Buffered reports how many samples are currently held in the detector's
// carry buffer — the per-session memory cost a long-running service
// accounts for when deciding what to evict.
func (s *StreamDetector) Buffered() int { return len(s.buf) }

// Consumed reports the total number of samples pushed since the start of
// the stream, including samples already processed and dropped from the
// buffer.
func (s *StreamDetector) Consumed() int { return s.absOffset + len(s.buf) }

// PushContext appends a chunk of samples and returns any newly confirmed
// detections, in time order, with absolute stream timestamps. The
// returned slice is reused by the next call — callers that keep
// detections past that point must copy them out (every current caller
// appends into its own storage immediately).
//
// When an obs hook is attached and at least one detection pass runs, the
// pass is wrapped in a "chirp.stream.push" span that inherits ctx's trace
// IDs, so streaming ingest shows up in the same trace as the locate call
// that consumes the session. Chunks too small to trigger a pass emit no
// span (the common per-callback case stays counter-only).
//
//hyperearvet:zeroalloc
func (s *StreamDetector) PushContext(ctx context.Context, chunk []float64) []Detection {
	s.buf = append(s.buf, chunk...)
	if len(s.buf) < s.blockSize {
		return nil
	}
	sp := s.obs.SpanCtx(ctx, "chirp.stream.push")
	out := s.out[:0]
	for len(s.buf) >= s.blockSize {
		out = s.process(false, out)
	}
	s.out = out
	sp.AttrInt("samples", len(chunk))
	sp.AttrInt("emitted", len(out))
	sp.End()
	if len(out) == 0 {
		return nil
	}
	return out
}

// alreadyEmitted reports whether a detection at absolute time abs is a
// re-detection of something already reported from an earlier overlapping
// block.
//
//hyperearvet:zeroalloc
func (s *StreamDetector) alreadyEmitted(abs float64) bool {
	for _, e := range s.emitted {
		if math.Abs(abs-e) < s.det.MinSeparation {
			return true
		}
	}
	return false
}

// extendEnv brings the cached decimated envelope up to date with the
// buffer via the shared block kernel: overlap-save blocks starting at the
// first non-final lag, each one fixed-size transform yielding up to a
// step of alias-free lags (dsp.Correlator.MatchedEnvelopeRange — the same
// block core the batch detector runs over a whole recording). Input
// past the buffer end is implicit zero padding, which makes the trailing
// template-length of lags equal what a batch pass over exactly this
// buffer would produce. Lags that were complete on a previous pass are
// never touched.
//
//hyperearvet:zeroalloc
func (s *StreamDetector) extendEnv() {
	dec := s.det.corr.Decimation()
	s.env = growKeep(s.env, s.envValid, (len(s.buf)+dec-1)/dec)
	s.det.corr.MatchedEnvelopeRange(s.env, s.buf, s.envValid, &s.scratch.seg)
	// Everything with the full template inside the buffer is final.
	s.envValid = 0
	if last := len(s.buf) - len(s.det.ref); last >= 0 {
		s.envValid = last/dec + 1
	}
}

// growKeep returns buf resized to n, keeping its first keep elements.
//
//hyperearvet:zeroalloc
func growKeep(buf []float64, keep, n int) []float64 {
	if cap(buf) < n {
		grown := make([]float64, n)
		copy(grown, buf[:keep])
		return grown
	}
	return buf[:n]
}

// process runs one detection pass over the current buffer: the cached
// overlap-save envelope is extended over the new samples, then the
// threshold/NMS/timing stages rerun over the window. Unless
// final, detections too close to the buffer end are withheld and a tail
// is carried over. The emission horizon leaves room for both the detection's
// own template and a full minimum-separation window after it, so that any
// stronger competitor the batch detector's non-maximum suppression would
// have preferred is already visible before the detection is committed.
//
//hyperearvet:zeroalloc
func (s *StreamDetector) process(final bool, out []Detection) []Detection {
	s.extendEnv()
	s.dets = s.det.detectCore(s.dets[:0], s.buf, s.env, &s.scratch)
	dets := s.dets
	horizon := len(s.buf) - len(s.det.ref) - s.minSepSamples
	if final {
		horizon = len(s.buf)
	}
	lastIdx := 0
	for _, d := range dets {
		if d.Index >= horizon {
			s.obs.Inc(MStreamWithheld)
			continue
		}
		abs := d.Time + float64(s.absOffset)/s.fs
		if s.alreadyEmitted(abs) {
			s.obs.Inc(MStreamDeduped)
			continue // already reported from a previous overlapping block
		}
		d.Time = abs
		d.Index += s.absOffset
		out = append(out, d)
		s.obs.Inc(MStreamEmitted)
		s.emitted = append(s.emitted, abs)
		lastIdx = d.Index - s.absOffset
	}
	if final {
		s.buf = nil
		s.env = nil
		s.envValid = 0
		return out
	}
	// Keep the tail: at least tailKeep samples, and never drop samples
	// after an emitted peak (the peak itself stays so its re-detection is
	// recognized rather than half a template producing a phantom). The
	// cut is rounded down to the decimation grid so the envelope shifts
	// by whole lags and stays on the absolute grid.
	dec := s.det.corr.Decimation()
	keepFrom := len(s.buf) - s.tailKeep
	if keepFrom < lastIdx {
		keepFrom = lastIdx
	}
	keepFrom = max(keepFrom, 0) / dec * dec
	s.absOffset += keepFrom
	remaining := len(s.buf) - keepFrom
	copy(s.buf, s.buf[keepFrom:])
	s.buf = s.buf[:remaining]
	// The complete lags shift with the buffer and stay valid; the
	// zero-padded tail lags will be recomputed next pass.
	shift := keepFrom / dec
	s.envValid = max(s.envValid-shift, 0)
	copy(s.env, s.env[shift:])
	s.env = s.env[:len(s.env)-shift]
	// Prune emissions that can no longer collide with future detections:
	// anything before the kept samples minus the dedupe window.
	bufStart := float64(s.absOffset)/s.fs - s.det.MinSeparation
	keep := s.emitted[:0]
	for _, e := range s.emitted {
		if e >= bufStart {
			keep = append(keep, e)
		}
	}
	s.emitted = keep
	return out
}

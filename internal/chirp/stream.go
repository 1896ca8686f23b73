package chirp

import (
	"context"

	"hyperear/internal/dsp"
	"hyperear/internal/obs"
)

// MStreamEmitted counts the detections a StreamDetector reports when an
// obs hook is attached (SetObs).
const MStreamEmitted = "chirp.stream.emitted"

// StreamDetector is the block-final form of Detector for live capture:
// audio arrives in arbitrary-size chunks (as from a phone's audio
// callback), runs through the Detector's matched-filter blocks in a
// dsp.EnvelopeFeed, and each block's detections are reported, with
// absolute timestamps, once the blocks around it are complete.
//
// Block k is final once blocks k+1…k+m are complete, m the blocks one
// non-maximum-suppression window spans (and enough for the samples the
// timing of block k's peaks reads). The threshold and NMS then run over
// the envelope of blocks k−m…k+m, and only the accepted peaks whose lag
// lies in block k are timed, from exact sums over the samples. Every
// input to that pass is fixed once the blocks are complete, so any
// chunking reports the same detections, bit for bit; they are the batch
// detector's detections in the final blocks wherever the window's floor
// and NMS decide as the whole recording's do (SNR is measured against
// the window's floor).
type StreamDetector struct {
	det  *Detector
	feed *dsp.EnvelopeFeed
	// m is how many blocks past block k must be complete before block k
	// is final; before is how far before a peak's lag its timing reads
	// samples. Both are fixed at construction.
	m, before int
	// next is the first block that is not final yet.
	next int
	// buf holds the samples from absolute index off on: everything the
	// timing of block next onward reads.
	buf []float64
	off int
	// scratch is the detection pass's working set (its env holds the
	// window's lags); out is the slice PushContext returns, reused
	// across pushes.
	scratch DetectScratch
	out     []Detection
	// obs counts emissions; nil (the default) disables at zero cost.
	obs *obs.Obs
}

// SetObs attaches an observability hook for MStreamEmitted and the push
// spans. Call it before the first Push; nil detaches.
func (s *StreamDetector) SetObs(o *obs.Obs) { s.obs = o }

// NewStreamDetector builds a StreamDetector over a flat-template
// Detector and a feed of its own.
func NewStreamDetector(p Params, fs float64) (*StreamDetector, error) {
	det, err := NewDetector(p, fs)
	if err != nil {
		return nil, err
	}
	return det.NewStreamDetector(), nil
}

// NewStreamDetector returns a StreamDetector over this Detector's blocks,
// with a feed of its own whose Prefix a locate of the same stream can
// reuse.
func (d *Detector) NewStreamDetector() *StreamDetector {
	step, n := d.corr.BlockStep(), d.corr.SegmentSize()
	before, after := d.timingReach()
	// The window must span the NMS neighbourhood and the narrowband
	// lobe scan, both within MinSeparation of a peak. Block k+m is
	// complete once (k+m)·step + n samples have arrived, and the timing
	// of a peak in block k reads up to after samples past its lag.
	m := (d.minSepSamples() + step - 1) / step
	for after > (m-1)*step+n {
		m++
	}
	return &StreamDetector{det: d, feed: d.NewEnvelopeFeed(), m: m, before: before}
}

// Prefix returns the complete blocks of the detector's feed, for a
// locate over the same stream (Detector.DetectIntoCtx).
//
//hyperearvet:zeroalloc
func (s *StreamDetector) Prefix() dsp.EnvelopePrefix { return s.feed.Prefix() }

// Buffered reports how many samples the detector holds for the timing of
// the blocks that are not final yet: at most (m+1)·BlockStep() +
// SegmentSize() plus one chunk.
func (s *StreamDetector) Buffered() int { return len(s.buf) }

// Consumed reports the total number of samples pushed since the start of
// the stream.
func (s *StreamDetector) Consumed() int { return s.off + len(s.buf) }

// PushContext appends a chunk of samples and returns the detections of
// every block it makes final, in time order, with absolute stream
// timestamps. The returned slice is reused by the next call — callers
// that keep detections past that point must copy them out (every
// current caller appends into its own storage immediately).
//
// A chunk that completes no block runs no block and no detection pass.
// When an obs hook is attached and a block becomes final, the passes are
// wrapped in a "chirp.stream.push" span that inherits ctx's trace IDs,
// so streaming ingest shows up in the same trace as the locate call that
// consumes the session.
//
//hyperearvet:zeroalloc
func (s *StreamDetector) PushContext(ctx context.Context, chunk []float64) []Detection {
	s.buf = append(s.buf, chunk...)
	s.feed.Push(chunk)
	final := s.feed.Blocks() - s.m
	if s.next >= final {
		return nil
	}
	sp := s.obs.SpanCtx(ctx, "chirp.stream.push")
	step := s.det.corr.BlockStep()
	out := s.out[:0]
	for ; s.next < final; s.next++ {
		k := s.next
		from := max(k-s.m, 0)
		s.scratch.env = s.feed.AppendLags(s.scratch.env[:0], from, k+s.m+1)
		out = s.det.detectCore(out, dsp.FloatSamples(s.buf, s.off), s.scratch.env, from*step, k*step, (k+1)*step, &s.scratch)
	}
	// Nothing pending reads before block next's reach.
	if drop := s.next*step - s.before - s.off; drop > 0 {
		s.buf = s.buf[:copy(s.buf, s.buf[drop:])]
		s.off += drop
	}
	s.out = out
	s.obs.Add(MStreamEmitted, uint64(len(out)))
	sp.AttrInt("samples", len(chunk))
	sp.AttrInt("emitted", len(out))
	sp.End()
	if len(out) == 0 {
		return nil
	}
	return out
}

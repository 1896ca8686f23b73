package dsp

import (
	"encoding/binary"
	"fmt"
)

// Samples is one channel of a recording as the matched filter and the
// detector read it: float64 samples held from an offset, or one channel
// of interleaved stereo int16 PCM that is decoded only where a block or a
// timing window reads it. A streamed session's locate reads its PCM
// through it, so its sample work follows the blocks and windows it runs,
// not the session's length. The zero value holds no samples.
type Samples struct {
	// f holds the recording's samples from index off on; pcm is nil.
	f   []float64
	off int
	// pcm, when non-nil, is interleaved stereo int16 little-endian PCM,
	// and the samples are channel ch's, from index 0.
	pcm []byte
	ch  int
}

// FloatSamples returns x as a recording's samples from index off on.
// Windows over it are slices of x: nothing is copied.
//
//hyperearvet:zeroalloc
func FloatSamples(x []float64, off int) Samples { return Samples{f: x, off: off} }

// Stereo16Samples returns channel ch (0 or 1) of interleaved stereo int16
// little-endian PCM, one sample per whole 4-byte frame (a trailing partial
// frame is dropped), decoded by PCM16 where a window reads it. raw must
// not change while the Samples are in use.
func Stereo16Samples(raw []byte, ch int) Samples {
	if ch != 0 && ch != 1 {
		panic(fmt.Sprintf("dsp: stereo channel %d (want 0 or 1)", ch))
	}
	return Samples{pcm: raw[:len(raw)/4*4], ch: ch}
}

// PCM16 is the one int16 sample rule: the little-endian int16 at b[0:2]
// divided by 32767. Every decoded upload and stream goes through it, so
// the same bytes are the same bits on every path.
//
//hyperearvet:zeroalloc
func PCM16(b []byte) float64 {
	return float64(int16(binary.LittleEndian.Uint16(b))) / 32767
}

// Len returns the index one past the last sample.
//
//hyperearvet:zeroalloc
func (s Samples) Len() int {
	if s.pcm != nil {
		return len(s.pcm) / 4
	}
	return s.off + len(s.f)
}

// Window returns the samples [lo, hi), clipped to those held, and the
// index of its first sample. Over float64 samples it is a slice of them;
// over PCM the samples are decoded into *buf, grown as needed and kept
// for the next call, and the window aliases it.
//
//hyperearvet:zeroalloc
func (s Samples) Window(buf *[]float64, lo, hi int) ([]float64, int) {
	if s.pcm == nil {
		lo, hi = max(lo, s.off), min(hi, s.off+len(s.f))
		if hi <= lo {
			return nil, lo
		}
		return s.f[lo-s.off : hi-s.off], lo
	}
	lo, hi = max(lo, 0), min(hi, len(s.pcm)/4)
	if hi <= lo {
		return nil, lo
	}
	if cap(*buf) < hi-lo {
		*buf = make([]float64, hi-lo)
	}
	w := (*buf)[:hi-lo]
	raw := s.pcm[4*lo+2*s.ch:]
	for i := range w {
		w[i] = PCM16(raw[4*i:])
	}
	return w, lo
}

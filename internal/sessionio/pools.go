package sessionio

import (
	"bytes"
	"sync"
)

// Decode-path pools. A localization upload passes through three large
// transient buffers — the multipart part bodies, the WAV data chunk
// scratch, and the decoded sample channels — all dead by the time the
// response is written. Recycling them turns the ~16 MB of per-locate
// ingestion garbage into a handful of steady-state-warm buffers. The
// poolleak analyzer enforces the borrowing discipline: every function
// that hands pooled memory to its caller carries //hyperearvet:pooled.

// maxPooledBufBytes caps what goes back into bufPool: a single hostile
// oversized upload must not pin tens of megabytes in the pool forever.
const maxPooledBufBytes = 1 << 25

// maxPooledSamples is the same cap for sample slices (2^22 samples ≈
// 95 s at 44.1 kHz, comfortably above any real session).
const maxPooledSamples = 1 << 22

// bufPool recycles the byte buffers that hold multipart part bodies and
// pre-fmt WAV data chunks during a decode.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuf borrows an empty byte buffer; pair with putBuf.
//
//hyperearvet:pooled
func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBufBytes {
		bufPool.Put(b)
	}
}

// pcmScratchPool recycles the fixed 64 KiB windows the streaming PCM
// decoder reads through (it reads the largest whole number of frames
// that fits).
var pcmScratchPool = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// samplePool recycles decoded sample slices ([]float64) across requests.
// It holds *[]float64 boxes so Put does not allocate for the header.
var samplePool sync.Pool

// BorrowSamples returns a length-n float slice from the sample pool (or
// fresh when the pool is cold or too small). The contents are NOT
// zeroed — callers must overwrite every element. Hand the slice back
// with RecycleSamples when done; letting the GC take it instead is safe,
// it just forfeits the reuse.
//
//hyperearvet:pooled
func BorrowSamples(n int) []float64 {
	if bp, ok := samplePool.Get().(*[]float64); ok && cap(*bp) >= n {
		return (*bp)[:n]
	}
	return make([]float64, n)
}

// RecycleSamples returns sample slices obtained from BorrowSamples (for
// example via ReadWAV or a Bundle's recording channels) to the pool.
// The caller must not touch the slices afterwards.
func RecycleSamples(chans ...[]float64) {
	for _, s := range chans {
		if cap(s) == 0 || cap(s) > maxPooledSamples {
			continue
		}
		s = s[:0]
		samplePool.Put(&s)
	}
}

// RecycleBundle returns a decoded bundle's audio sample buffers to the
// pool once the caller is completely done with the recording (after the
// localization response is written). The bundle must not be used again.
func RecycleBundle(b *Bundle) {
	if b == nil || b.Recording == nil {
		return
	}
	RecycleSamples(b.Recording.Mic1, b.Recording.Mic2)
	b.Recording = nil
}

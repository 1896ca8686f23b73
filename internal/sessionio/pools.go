package sessionio

import (
	"bytes"
	"sync"
)

// Upload pools. An upload passes through two kinds of large transient
// buffer, both dead by the time the response is written: the bytes (a
// request body, a multipart part) and the decoded sample channels.
// Recycling them turns the ~16 MB of per-locate ingestion garbage into a
// handful of steady-state-warm buffers. The poolleak analyzer enforces
// the borrowing discipline: every function that hands pooled memory to
// its caller carries //hyperearvet:pooled.

// maxPooledBufBytes caps what goes back into bufPool: a single hostile
// oversized upload must not pin tens of megabytes in the pool forever.
const maxPooledBufBytes = 1 << 25

// maxPooledSamples is the same cap for sample slices (2^22 samples ≈
// 95 s at 44.1 kHz, comfortably above any real session).
const maxPooledSamples = 1 << 22

// bufPool recycles the byte buffers that hold request bodies and
// multipart part bodies.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// BorrowBuffer returns an empty byte buffer from the pool. Hand it back
// with RecycleBuffer once nothing reads its bytes.
//
//hyperearvet:pooled
func BorrowBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// RecycleBuffer returns a BorrowBuffer buffer to the pool. The caller
// must not touch it, or any slice of its bytes, afterwards.
func RecycleBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBufBytes {
		bufPool.Put(b)
	}
}

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
// example via ReadWAV, DecodeStereo16 or a Bundle's recording channels)
// to the pool.
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

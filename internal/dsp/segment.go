package dsp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the segmented execution mode of the matched filter and the
// Hilbert envelope: instead of one session-length transform (2^19+ points
// for a 20 s recording — cache-hostile and inherently serial), the input
// is cut into fixed-size overlap-save blocks whose working set stays
// L2-resident, and the blocks fan out across a bounded worker pool. The
// block size is the one the streaming detector has always used
// (NextPow2(segFFTMul·template)), so the Correlator's cached half-spectrum
// template is shared between the batch and streaming paths — they are the
// same kernel, differing only in which lag range they fill.
//
// Accuracy contract: each block computes the exact same circular
// correlation CorrelateCircularInto has always computed; lags only ever
// come from the alias-free prefix, and input past the buffer end is
// implicit zero padding, which equals what a linear (monolithic)
// correlation produces for the trailing template-length of lags. The
// per-lag values differ from the monolithic path only by the rounding of
// a different FFT factorization — within 1e-12 of the peak magnitude,
// pinned by TestSegmentedMatchesMonolithic.

// segFFTMul sizes the fixed overlap-save transform at
// NextPow2(segFFTMul·template) samples. Four template lengths keeps the
// alias-free step (N - template + 1) at ≳3 templates per transform, so
// the per-lag FFT cost is within ~35% of the asymptotic optimum while the
// working set stays small enough for L2 (a 16 K-point block is 256 KB of
// half-spectrum scratch).
const segFFTMul = 4

// SegmentSize returns the fixed overlap-save transform length the
// segmented paths use for this template: NextPow2(segFFTMul·RefLen()).
// StreamDetector uses the same size, so both paths hit the same cached
// template spectrum.
//
//hyperearvet:zeroalloc
func (c *Correlator) SegmentSize() int {
	n := NextPow2(segFFTMul * len(c.ref))
	if n < 2 {
		n = 2
	}
	return n
}

// SegmentStep returns the alias-free lags each segmented block yields:
// SegmentSize() - RefLen() + 1.
//
//hyperearvet:zeroalloc
func (c *Correlator) SegmentStep() int { return c.SegmentSize() - len(c.ref) + 1 }

// SegScratch holds the per-worker spectrum buffers of segmented
// correlation and envelope passes. A zero value is ready to use; after
// the first call at a given size every buffer is warm and the pass
// performs no heap allocations. A SegScratch must not be shared between
// concurrent calls (workers within one call index disjoint buffers).
type SegScratch struct {
	spec [][]complex128
	// f holds per-worker real staging buffers (envelope Hilbert output).
	f [][]float64
}

// grow pre-sizes the per-worker slots to the pool width. The parallel
// paths call it before fanning out: growing the outer slices from
// inside concurrent buf/fbuf calls would race on the slice
// headers, whereas after grow each worker only ever touches its own
// index.
//
//hyperearvet:zeroalloc
func (s *SegScratch) grow(workers int) {
	for len(s.spec) < workers {
		s.spec = append(s.spec, nil)
	}
	for len(s.f) < workers {
		s.f = append(s.f, nil)
	}
}

// buf returns worker w's complex buffer grown to length n.
//
//hyperearvet:zeroalloc
func (s *SegScratch) buf(w, n int) []complex128 {
	for len(s.spec) <= w {
		s.spec = append(s.spec, nil)
	}
	if cap(s.spec[w]) < n {
		s.spec[w] = make([]complex128, n)
	}
	return s.spec[w][:n]
}

// fbuf returns worker w's real buffer grown to length n (the envelope
// blocks' Hilbert-transform staging).
//
//hyperearvet:zeroalloc
func (s *SegScratch) fbuf(w, n int) []float64 {
	for len(s.f) <= w {
		s.f = append(s.f, nil)
	}
	if cap(s.f[w]) < n {
		s.f[w] = make([]float64, n)
	}
	return s.f[w][:n]
}

// segWorkers resolves a requested worker count against the block count
// (same semantics as the core package's effectiveWorkers, which dsp
// cannot import): ≤ 0 selects GOMAXPROCS, and the pool never exceeds the
// number of blocks.
//
//hyperearvet:zeroalloc
func segWorkers(blocks, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// segParallel runs fn(worker, b) for every block b in [0, blocks) on a
// bounded worker pool, checking ctx before each block so cancellation
// lands mid-recording rather than at stage boundaries. workers == 1 (or a
// single block) runs inline with no synchronization — the allocation-free
// serial path. Panics in fn surface on the calling goroutine: workers
// recover, the first panic value wins, and it is re-raised after all
// workers drain (mirroring core's parallelForWorkers).
func segParallel(ctx context.Context, blocks, workers int, fn func(worker, b int)) error {
	if blocks <= 0 {
		return ctx.Err()
	}
	workers = segWorkers(blocks, workers)
	if workers == 1 {
		for b := 0; b < blocks; b++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, b)
		}
		return nil
	}
	var (
		next     int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		panicked bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !panicked {
						panicked = true
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= blocks || ctx.Err() != nil {
					return
				}
				fn(worker, b)
			}
		}(w)
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	return ctx.Err()
}

// CrossCorrelateSegmentedInto computes CrossCorrelate(x, ref) into dst
// like Correlator.CrossCorrelateInto, but as fixed-size overlap-save
// blocks at SegmentSize() fanned across workers (≤ 0 selects GOMAXPROCS;
// 1 runs serial and allocation-free once scratch is warm). A nil scratch
// is allowed and degrades to per-call buffers.
//
//hyperearvet:zeroalloc
func (c *Correlator) CrossCorrelateSegmentedInto(dst, x []float64, s *SegScratch, workers int) []float64 {
	dst, _ = c.CrossCorrelateSegmentedCtx(context.Background(), dst, x, s, workers)
	return dst
}

// CrossCorrelateSegmentedCtx is CrossCorrelateSegmentedInto with
// cancellation: ctx is checked before every block, and on cancellation
// the partial dst plus ctx's error are returned.
//
//hyperearvet:zeroalloc
func (c *Correlator) CrossCorrelateSegmentedCtx(ctx context.Context, dst, x []float64, s *SegScratch, workers int) ([]float64, error) {
	if len(x) == 0 || len(c.ref) == 0 {
		return dst[:0], ctx.Err()
	}
	dst = resizeF64(dst, len(x))
	return dst, c.segmentedRange(ctx, dst, x, 0, s, workers)
}

// CorrelateSegmentedRange fills the matched-filter lags [from, len(dst))
// of x into dst using the same segmented kernel: blocks start at from and
// advance by SegmentStep(), each computing CorrelateCircularInto at
// SegmentSize(). This is the streaming detector's overlap-save extension
// loop — it passes its cached-correlation high-water mark as from and the
// shared kernel fills only the missing lags. len(dst) must not exceed
// len(x).
//
//hyperearvet:zeroalloc
func (c *Correlator) CorrelateSegmentedRange(dst, x []float64, from int, s *SegScratch, workers int) {
	if len(dst) > len(x) {
		panic(fmt.Sprintf("dsp: segmented range output %d exceeds input %d", len(dst), len(x)))
	}
	if from < 0 {
		from = 0
	}
	if err := c.segmentedRange(context.Background(), dst, x, from, s, workers); err != nil {
		panic(err) // unreachable: Background never cancels
	}
}

// segmentedRange is the shared block loop: lags [from, len(dst)) of x,
// one CorrelateCircularInto per block on per-worker scratch.
//
//hyperearvet:zeroalloc
func (c *Correlator) segmentedRange(ctx context.Context, dst, x []float64, from int, s *SegScratch, workers int) error {
	if from >= len(dst) {
		return ctx.Err()
	}
	if len(c.ref) == 0 {
		return ctx.Err()
	}
	n := c.SegmentSize()
	step := n - len(c.ref) + 1
	p := realPlanFor(n)
	spec := c.spectrum(n)
	h := p.SpectrumLen()
	if s == nil {
		//hyperearvet:allow zeroalloc nil scratch is the caller opting out of reuse; the detector passes a warm SegScratch
		s = &SegScratch{}
	}
	blocks := (len(dst) - from + step - 1) / step
	if segWorkers(blocks, workers) == 1 {
		// Inline serial loop: creating the fan-out closure would heap-
		// allocate it (it escapes into goroutines on the parallel path),
		// and this path must stay allocation-free for the detector's
		// steady-state pins.
		fx := s.buf(0, h)
		for b := 0; b < blocks; b++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			at := from + b*step
			end := at + step
			if end > len(dst) {
				end = len(dst)
			}
			in := at + n
			if in > len(x) {
				in = len(x)
			}
			c.correlateAtWith(dst[at:end], x[at:in], p, spec, fx)
		}
		return nil
	}
	s.grow(segWorkers(blocks, workers))
	//hyperearvet:allow zeroalloc parallel fan-out heap-allocates its block closure once per call; the serial path above stays allocation-free
	return segParallel(ctx, blocks, workers, func(worker, b int) {
		at := from + b*step
		end := at + step
		if end > len(dst) {
			end = len(dst)
		}
		in := at + n
		if in > len(x) {
			in = len(x)
		}
		c.correlateAtWith(dst[at:end], x[at:in], p, spec, s.buf(worker, h))
	})
}

// Envelope segmentation. The analytic signal is global (the Hilbert
// kernel has infinite support), so unlike correlation the blocked
// envelope is an approximation: each block is computed from a window with
// envSegMargin samples of real context on each side, and the kernel's
// 1/(π·d) tail beyond that margin is truncated. With a 4096-sample margin
// the relative error at a block seam is ≲1e-4 of the local signal level —
// the same order as the truncation the streaming detector has always
// accepted at its buffer edges — and the detection differential tests pin
// that it never changes which peaks are found.
const (
	// envSegSize is the fixed envelope transform length. 2^15 keeps the
	// complex working set at 512 KB while amortizing the margins to 25%
	// of the block.
	envSegSize = 1 << 15
	// envSegMargin is the real-context margin on each side of a block.
	envSegMargin = 1 << 12
)

// EnvelopeSegmentedInto computes the Hilbert envelope of x into dst like
// EnvelopeInto, but blockwise on fixed envSegSize transforms fanned
// across workers. Inputs short enough for a single monolithic transform
// (≤ envSegSize) take the exact monolithic path.
//
//hyperearvet:zeroalloc
func EnvelopeSegmentedInto(dst, x []float64, s *SegScratch, workers int) []float64 {
	dst, _ = EnvelopeSegmentedCtx(context.Background(), dst, x, s, workers)
	return dst
}

// EnvelopeSegmentedCtx is EnvelopeSegmentedInto with per-block ctx
// checks, returning the partial dst plus ctx's error on cancellation.
//
//hyperearvet:zeroalloc
func EnvelopeSegmentedCtx(ctx context.Context, dst, x []float64, s *SegScratch, workers int) ([]float64, error) {
	if len(x) <= envSegSize {
		if err := ctx.Err(); err != nil {
			return dst[:0], err
		}
		return EnvelopeInto(dst, x), nil
	}
	ne := envSegSize
	outB := ne - 2*envSegMargin
	rp := realPlanFor(ne)
	h := rp.SpectrumLen()
	if s == nil {
		//hyperearvet:allow zeroalloc nil scratch is the caller opting out of reuse; steady-state callers pass a warm SegScratch
		s = &SegScratch{}
	}
	dst = resizeF64(dst, len(x))
	blocks := (len(x) + outB - 1) / outB
	if segWorkers(blocks, workers) == 1 {
		// Inline serial loop — same allocation-free rationale as
		// segmentedRange.
		c := s.buf(0, h)
		hil := s.fbuf(0, ne)
		for b := 0; b < blocks; b++ {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
			envSegBlock(dst, x, b*outB, outB, rp, c, hil)
		}
		return dst, nil
	}
	s.grow(segWorkers(blocks, workers))
	//hyperearvet:allow zeroalloc parallel fan-out heap-allocates its block closure once per call; the serial path above stays allocation-free
	err := segParallel(ctx, blocks, workers, func(worker, b int) {
		envSegBlock(dst, x, b*outB, outB, rp, s.buf(worker, h), s.fbuf(worker, ne))
	})
	return dst, err
}

// envSegBlock computes one envelope output block [start, start+outB) of x
// from a window with envSegMargin samples of real context on each side.
//
//hyperearvet:zeroalloc
func envSegBlock(dst, x []float64, start, outB int, rp *RealPlan, spec []complex128, hil []float64) {
	stop := start + outB
	if stop > len(x) {
		stop = len(x)
	}
	lo := start - envSegMargin
	if lo < 0 {
		lo = 0
	}
	hi := stop + envSegMargin
	if hi > len(x) {
		hi = len(x)
	}
	envelopeWindow(dst[start:stop], x[lo:hi], start-lo, rp, spec, hil)
}

// envelopeWindow writes the Hilbert envelope of window w, for the window
// samples [from, from+len(dst)), into dst. It runs entirely on the packed
// real path: the Hilbert transform H(w) has spectrum -i·sign(f)·W(f),
// which is Hermitian (H(w) is real), so InverseReal reconstructs it with
// half the butterflies of a complex analytic-signal inverse — and the
// in-phase component is just w itself. env = sqrt(w² + H(w)²). rp must
// span len(w) samples, spec is its SpectrumLen() scratch, and hil
// (length ≥ from+len(dst)) stages H(w); hil may be dst itself when from
// is 0, since each sample of H(w) is read just before its slot is
// overwritten.
//
//hyperearvet:zeroalloc
func envelopeWindow(dst, w []float64, from int, rp *RealPlan, spec []complex128, hil []float64) {
	m := rp.Size() / 2
	rp.ForwardReal(spec, w)
	// Quadrature rotation: W[k] -> -i·W[k] on positive frequencies; DC
	// and Nyquist carry no quadrature component.
	spec[0] = 0
	spec[m] = 0
	for k := 1; k < m; k++ {
		v := spec[k]
		spec[k] = complex(imag(v), -real(v))
	}
	hil = hil[:from+len(dst)]
	rp.InverseReal(hil, spec)
	// sqrt(re²+im²) rather than math.Hypot: the samples are bounded by
	// the input's dynamic range (no overflow/underflow regime), and
	// Hypot's scaling branches cost ~5× per sample on this hot loop. The
	// ≤1-ulp difference is far inside the seam-truncation error bound.
	w = w[from : from+len(dst)]
	hil = hil[from:]
	for i, re := range w {
		im := hil[i]
		dst[i] = math.Sqrt(re*re + im*im)
	}
}

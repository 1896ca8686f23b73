package dsp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the segmented execution mode of the matched filter:
// instead of one session-length transform (2^19+ points for a 20 s
// recording — cache-hostile and inherently serial), the input is cut into
// fixed-size overlap-save blocks whose working set stays L2-resident, and
// the blocks fan out across a bounded worker pool. The block size is the
// one the streaming detector has always used (NextPow2(segFFTMul·
// template)), so the Correlator's cached half-spectrum template is shared
// between the batch and streaming paths — they are the same kernel,
// differing only in which lag range they fill. Each block also yields the
// Hilbert envelope of its lags from its own spectrum (matchedBlock), so
// no pass ever transforms the correlation output again.
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

// SegScratch holds the per-worker spectrum buffers of segmented
// matched-filter passes. A zero value is ready to use; after the first
// call at a given size every buffer is warm and the pass performs no heap
// allocations. A SegScratch must not be shared between concurrent calls
// (workers within one call index disjoint buffers).
type SegScratch struct {
	spec [][]complex128
}

// grow pre-sizes the per-worker slots to the pool width. The parallel
// path calls it before fanning out: growing the outer slice from inside
// concurrent buf calls would race on the slice header, whereas after grow
// each worker only ever touches its own index.
//
//hyperearvet:zeroalloc
func (s *SegScratch) grow(workers int) {
	for len(s.spec) < workers {
		s.spec = append(s.spec, nil)
	}
}

// buf returns worker w's complex buffer grown to length n.
//
//hyperearvet:zeroalloc
func (s *SegScratch) buf(w, n int) []complex128 {
	s.grow(w + 1)
	if cap(s.spec[w]) < n {
		s.spec[w] = make([]complex128, n)
	}
	return s.spec[w][:n]
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

// MatchedFilterCtx runs the matched filter over x as fixed-size
// overlap-save blocks at SegmentSize(), fanned across workers (≤ 0
// selects GOMAXPROCS; 1 runs serial and allocation-free once scratch is
// warm). It writes the correlation lags r[k] = Σ_j x[k+j]·ref[j] —
// CrossCorrelate(x, ref) — and their Hilbert envelope into r and env,
// both grown/reused to len(x), and returns them. ctx is checked before
// every block; on cancellation the partial outputs plus ctx's error are
// returned. A nil scratch is allowed and degrades to per-call buffers.
//
//hyperearvet:zeroalloc
func (c *Correlator) MatchedFilterCtx(ctx context.Context, r, env, x []float64, s *SegScratch, workers int) ([]float64, []float64, error) {
	if len(x) == 0 || len(c.ref) == 0 {
		return r[:0], env[:0], ctx.Err()
	}
	r = resizeF64(r, len(x))
	env = resizeF64(env, len(x))
	return r, env, c.matchedRange(ctx, r, env, x, 0, s, workers)
}

// MatchedFilterRange fills lags [from, len(r)) of r and env from x with
// the same block kernel, serially: blocks start at from and advance by
// the alias-free step. This is the streaming detector's overlap-save
// extension loop — it passes its complete-lag high-water mark as from
// and the kernel fills only the missing lags. len(env) must equal
// len(r), which must not exceed len(x).
//
//hyperearvet:zeroalloc
func (c *Correlator) MatchedFilterRange(r, env, x []float64, from int, s *SegScratch) {
	if len(r) > len(x) || len(env) != len(r) {
		panic(fmt.Sprintf("dsp: matched-filter range outputs %d/%d over input %d", len(r), len(env), len(x)))
	}
	if err := c.matchedRange(context.Background(), r, env, x, max(from, 0), s, 1); err != nil {
		panic(err) // unreachable: Background never cancels
	}
}

// matchedRange is the shared block loop: lags [from, len(r)) of x, one
// matchedBlock per block on per-worker scratch.
//
//hyperearvet:zeroalloc
func (c *Correlator) matchedRange(ctx context.Context, r, env, x []float64, from int, s *SegScratch, workers int) error {
	if from >= len(r) || len(c.ref) == 0 {
		return ctx.Err()
	}
	n := c.SegmentSize()
	step := n - len(c.ref) + 1
	p := realPlanFor(n)
	spec := c.spectrum(n)
	// Each worker holds the block spectrum and its quadrature copy.
	h := 2 * p.SpectrumLen()
	if s == nil {
		//hyperearvet:allow zeroalloc nil scratch is the caller opting out of reuse; the detector passes a warm SegScratch
		s = &SegScratch{}
	}
	blocks := (len(r) - from + step - 1) / step
	if segWorkers(blocks, workers) == 1 {
		// Inline serial loop: creating the fan-out closure would heap-
		// allocate it (it escapes into goroutines on the parallel path),
		// and this path must stay allocation-free for the detector's
		// steady-state pins.
		buf := s.buf(0, h)
		for b := 0; b < blocks; b++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			matchedBlock(r, env, x, from+b*step, step, p, spec, buf)
		}
		return nil
	}
	s.grow(segWorkers(blocks, workers))
	//hyperearvet:allow zeroalloc parallel fan-out heap-allocates its block closure once per call; the serial path above stays allocation-free
	return segParallel(ctx, blocks, workers, func(worker, b int) {
		matchedBlock(r, env, x, from+b*step, step, p, spec, s.buf(worker, h))
	})
}

// matchedBlock is the quadrature matched filter on one overlap-save
// block: lags [at, at+step) of r and env (clipped to len(r)) from the
// block input x[at : at+n], n = p.Size(). spec is the template's
// conjugated half spectrum at n and buf holds two SpectrumLen() spectra.
//
// The Hilbert transform of the block's output r has spectrum
// −i·sign(f)·X·conj(T), a −90° rotation of the product the block already
// holds (equivalently, H(x⋆t) = x⋆H(t) up to sign), so a second
// half-size InverseReal recovers it and env = sqrt(r² + H(r)²) needs no
// transform over the correlation output. The r arithmetic is exactly
// CorrelateCircularInto's at n, so r is bit-identical to it block by
// block. The quadrature is the block's circular one: it aliases the tail
// of the template's Hilbert kernel past the block edges, which for the
// band-limited chirp templates stays within ~4e-6 of the envelope peak
// (DESIGN.md §8, "Segmented matched filtering").
//
//hyperearvet:zeroalloc
func matchedBlock(r, env, x []float64, at, step int, p *RealPlan, spec, buf []complex128) {
	end := min(at+step, len(r))
	in := min(at+p.Size(), len(x))
	fx, fq := buf[:len(spec)], buf[len(spec):2*len(spec)]
	p.ForwardReal(fx, x[at:in])
	for i, t := range spec {
		fx[i] *= t
	}
	quadrature(fq, fx)
	r, env = r[at:end], env[at:end]
	p.InverseReal(r, fx)
	p.InverseReal(env, fq)
	foldEnvelope(env, r)
}

// quadrature writes the Hilbert-transform spectrum of the real signal
// whose half spectrum is spec into q: −i·X[k] on the positive
// frequencies, with DC and Nyquist zeroed (they carry no quadrature
// component). The result is Hermitian like spec, so InverseReal
// reconstructs the (real) Hilbert transform. q may be spec itself.
//
//hyperearvet:zeroalloc
func quadrature(q, spec []complex128) {
	m := len(spec) - 1
	for k := 1; k < m; k++ {
		v := spec[k]
		q[k] = complex(imag(v), -real(v))
	}
	q[0], q[m] = 0, 0
}

// foldEnvelope replaces each quadrature sample env[i] with the envelope
// sqrt(x[i]² + env[i]²) of the in-phase sample x[i].
//
// sqrt(re²+im²) rather than math.Hypot: the samples are bounded by the
// input's dynamic range (no overflow/underflow regime), and Hypot's
// scaling branches cost ~5× per sample on this hot loop.
//
//hyperearvet:zeroalloc
func foldEnvelope(env, x []float64) {
	x = x[:len(env)]
	for i, re := range x {
		im := env[i]
		env[i] = math.Sqrt(re*re + im*im)
	}
}

package dsp

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// This file is the segmented execution mode of the matched filter:
// instead of one session-length transform (2^19+ points for a 20 s
// recording — cache-hostile), the input is cut into fixed-size
// overlap-save blocks whose working set stays L2-resident, run one after
// another on one scratch buffer, at NextPow2(segFFTMul·template) points.
// A batch pass runs the blocks over a whole recording; an EnvelopeFeed
// runs the same blocks, on the same grid, as a stream's samples arrive.
//
// Each block is band-limited and analytic (bandBlock): it keeps only the
// template's band of its product spectrum and inverts it at n/D points,
// yielding the Hilbert envelope of the correlation at every D-th lag. No
// block writes the full-rate correlation; the detector times accepted
// peaks from exact direct sums over the samples instead
// (CorrelateWindow, QuadratureWindow).
//
// Accuracy contract: lags only ever come from each block's alias-free
// prefix, and input past the buffer end is implicit zero padding, which
// equals what a linear (monolithic) correlation produces for the trailing
// template-length of lags. The envelope differs from the exact analytic
// envelope of the monolithic correlation by the blocks' circular
// quadrature and the band cut — pinned by TestSegmentedMatchesMonolithic
// here and, for the beacon templates, TestMatchedFilterEnvelopeOracle.

// segFFTMul sizes the fixed overlap-save transform at
// NextPow2(segFFTMul·template) samples. Four template lengths keeps the
// alias-free step (N - template + 1) at ≳3 templates per transform, so
// the per-lag FFT cost is within ~35% of the asymptotic optimum while the
// working set stays small enough for L2 (a 16 K-point block is 256 KB of
// half-spectrum scratch).
const segFFTMul = 4

// SegmentSize returns the fixed overlap-save transform length the
// segmented paths use for this template: NextPow2(segFFTMul·RefLen()).
//
//hyperearvet:zeroalloc
func (c *Correlator) SegmentSize() int {
	n := NextPow2(segFFTMul * len(c.ref))
	if n < 2 {
		n = 2
	}
	return n
}

// SegScratch holds the buffers of segmented matched-filter passes: the
// block spectrum, and the decoded block input when the samples are PCM.
// A zero value is ready to use; after the first call at a given size the
// buffers are warm and the pass performs no heap allocations. A
// SegScratch must not be shared between concurrent calls.
type SegScratch struct {
	spec []complex128
	in   []float64
}

// bandFloorRel is the in-band cut of the band-limited kernel: bins whose
// template magnitude is below 1e-5 of the template's peak bin (−100 dB)
// carry no correlation energy worth keeping.
const bandFloorRel = 1e-5

// bandKernel is the band-limited analytic matched filter's setup at the
// block size n = SegmentSize(): the template's in-band bins, the
// decimation they allow, and the small complex plan that inverts them.
type bandKernel struct {
	// d is the decimation: the largest power of two whose n/d bins hold
	// every bin within −100 dB of the template spectrum's peak.
	d int
	// step is the alias-free block step n − RefLen() + 1 rounded down to
	// a multiple of d, so every block starts on the absolute d-grid.
	step int
	// lo is the first kept bin; spec holds (c_k/n)·conj(T[k]) for the
	// n/d bins k = lo, lo+1, … centred on the band (n/2+1 when d = 1),
	// where c_k = 2 (1 at DC and Nyquist) builds the analytic signal and
	// 1/n is the inverse scale, both powers of two and therefore exact.
	lo   int
	spec []complex128
	// inv is the complex plan of size n/d.
	inv *Plan
}

// band returns the Correlator's band-limited kernel, building it on first
// use from the template spectrum at SegmentSize().
//
//hyperearvet:zeroalloc
func (c *Correlator) band() *bandKernel {
	c.bandOnce.Do(c.buildBand)
	return c.bandK
}

func (c *Correlator) buildBand() {
	n := c.SegmentSize()
	t := c.spectrum(n)
	peak := 0.0
	for _, v := range t {
		peak = math.Max(peak, cmplx.Abs(v))
	}
	lo, hi := len(t)-1, 0
	for k, v := range t {
		if cmplx.Abs(v) >= bandFloorRel*peak {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	d := 1
	for n/(2*d) >= hi-lo+1 {
		d *= 2
	}
	// The n/d slots are all filled: widen the band to n/d bins centred on
	// it, so the bins the kernel drops lie deeper in the stopband.
	w := min(n/d, len(t))
	lo = max(0, min(lo-(w-(hi-lo+1))/2, len(t)-w))
	spec := make([]complex128, w)
	for i := range spec {
		k := lo + i
		scale := 2 / float64(n)
		if k == 0 || k == n/2 {
			scale = 1 / float64(n)
		}
		spec[i] = t[k] * complex(scale, 0)
	}
	// d ≤ n/2 < n − RefLen() + 1, since n ≥ 4·RefLen(): the step is
	// never empty.
	step := (n - len(c.ref) + 1) / d * d
	c.bandK = &bandKernel{d: d, step: step, lo: lo, spec: spec, inv: planFor(n / d)}
}

// Decimation returns the band-limited matched filter's decimation D: the
// envelope MatchedEnvelopeCtx writes holds every D-th lag. D follows from
// the template alone (see bandKernel), so batch and stream agree on it.
//
//hyperearvet:zeroalloc
func (c *Correlator) Decimation() int { return c.band().d }

// MatchedEnvelopeCtx runs the band-limited analytic matched filter over x
// as fixed-size overlap-save blocks at SegmentSize(), one after another
// and allocation-free once scratch is warm. It writes the Hilbert
// envelope of the correlation
// r[k] = Σ_j x[k+j]·ref[j] at every D-th lag into env, env[m] = |z(D·m)|
// for m in [0, ⌈x.Len()/D⌉), D = Decimation(), growing/reusing env, and
// returns it. x must hold its samples from index 0. ctx is checked
// before every block; on cancellation the partial output plus ctx's
// error are returned. A nil scratch is allowed and degrades to per-call
// buffers.
//
// Block k reads x[k·BlockStep(), k·BlockStep()+SegmentSize()) and
// writes lags [k·BlockStep()/D, (k+1)·BlockStep()/D): the grid is
// anchored at lag 0, whatever x's length. pre, when an EnvelopeFeed of
// this Correlator built it over a prefix of x, supplies the leading
// blocks: those whose whole input lies inside x are copied instead of
// recomputed, and the loop runs only the blocks after them, so PCM
// samples are decoded only for those. Any other prefix — the zero value,
// or another Correlator's — is ignored.
//
//hyperearvet:zeroalloc
func (c *Correlator) MatchedEnvelopeCtx(ctx context.Context, env []float64, x Samples, pre EnvelopePrefix, s *SegScratch) ([]float64, error) {
	n := x.Len()
	if n == 0 || len(c.ref) == 0 {
		return env[:0], ctx.Err()
	}
	if x.pcm == nil && x.off != 0 {
		panic(fmt.Sprintf("dsp: matched filter over samples held from index %d, not 0", x.off))
	}
	b := c.band()
	per := b.step / b.d
	env = resizeF64(env, (n+b.d-1)/b.d)
	from := 0
	if pre.c == c {
		blocks := pre.blocks[:min(len(pre.blocks), c.completeBlocks(n))]
		for k, lags := range blocks {
			copy(env[k*per:], lags)
		}
		from = len(blocks) * per
	}
	if from >= len(env) {
		return env, ctx.Err()
	}
	p := realPlanFor(c.SegmentSize())
	if s == nil {
		//hyperearvet:allow zeroalloc nil scratch is the caller opting out of reuse; the detector passes a warm SegScratch
		s = &SegScratch{}
	}
	buf := s.blockBuf(b, p)
	for m0 := from; m0 < len(env); m0 += per {
		if err := ctx.Err(); err != nil {
			return env, err
		}
		at := m0 * b.d
		in, _ := x.Window(&s.in, at, at+p.Size())
		bandBlock(env[m0:min(m0+per, len(env))], in, b, p, buf)
	}
	return env, nil
}

// BlockStep returns the input samples between the starts of consecutive
// MatchedEnvelopeCtx blocks: a multiple of Decimation() just under
// SegmentSize() − RefLen() + 1. Block k writes the lags
// [k·BlockStep(), (k+1)·BlockStep()).
//
//hyperearvet:zeroalloc
func (c *Correlator) BlockStep() int { return c.band().step }

// completeBlocks returns how many of MatchedEnvelopeCtx's blocks over n
// input samples read no sample past n: their lags are final, the same
// bits over any input that starts with those n samples.
//
//hyperearvet:zeroalloc
func (c *Correlator) completeBlocks(n int) int {
	if n < c.SegmentSize() {
		return 0
	}
	return (n-c.SegmentSize())/c.band().step + 1
}

// EnvelopePrefix is the leading complete blocks of one Correlator's
// decimated envelope over an input, as an EnvelopeFeed computed them.
// The zero value is the empty prefix. The lags are shared, read-only.
type EnvelopePrefix struct {
	c *Correlator
	// blocks holds one slice of BlockStep()/Decimation() lags per block.
	blocks [][]float64
}

// Len returns how many decimated lags the prefix holds: a whole number
// of blocks, BlockStep()/Decimation() lags each. No production path calls
// it: the feed tests in internal/chirp and internal/core check block
// counts with it.
func (p EnvelopePrefix) Len() int {
	if len(p.blocks) == 0 {
		return 0
	}
	return len(p.blocks) * len(p.blocks[0])
}

// EnvelopeFeed runs MatchedEnvelopeCtx's blocks over an input that
// arrives piecewise: each block runs once, as soon as the feed holds its
// whole input, on the grid MatchedEnvelopeCtx uses. Prefix therefore
// always equals the leading lags of MatchedEnvelopeCtx over the input so
// far, or over any input that continues it, bit for bit. The feed keeps
// at most one block's input, and borrows the block scratch from a pool
// only while a block runs. It is not safe for concurrent use; the
// prefixes it hands out are.
type EnvelopeFeed struct {
	c *Correlator
	// in is the input from the next block's first sample on: block
	// len(blocks) runs once it holds SegmentSize() samples.
	in []float64
	// blocks holds each complete block's decimated lags in a slice of
	// its own, sized exactly: no block is ever written or copied again
	// once appended, so nothing a Prefix handed out changes.
	blocks [][]float64
}

// segPool lends EnvelopeFeed.Push its block scratch for one block.
var segPool = sync.Pool{New: func() any { return new(SegScratch) }}

// NewEnvelopeFeed returns an empty feed over this Correlator's blocks.
func (c *Correlator) NewEnvelopeFeed() *EnvelopeFeed { return &EnvelopeFeed{c: c} }

// Push appends x to the feed's input and runs every block the input now
// completes.
//
//hyperearvet:zeroalloc
func (f *EnvelopeFeed) Push(x []float64) {
	if len(f.c.ref) == 0 {
		return
	}
	b, n := f.c.band(), f.c.SegmentSize()
	p := realPlanFor(n)
	if cap(f.in) < n {
		f.in = append(make([]float64, 0, n), f.in...)
	}
	for len(x) > 0 {
		k := min(len(x), n-len(f.in))
		f.in = append(f.in, x[:k]...)
		x = x[k:]
		if len(f.in) < n {
			return
		}
		//hyperearvet:allow zeroalloc each complete block's lags are kept in a slice of their own for the feed's life
		lags := make([]float64, b.step/b.d)
		s := segPool.Get().(*SegScratch)
		bandBlock(lags, f.in, b, p, s.blockBuf(b, p))
		segPool.Put(s)
		f.blocks = append(f.blocks, lags)
		f.in = f.in[:copy(f.in, f.in[b.step:])]
	}
}

// Prefix returns the complete blocks so far, for MatchedEnvelopeCtx.
// Later Pushes never write the lags it returns.
//
//hyperearvet:zeroalloc
func (f *EnvelopeFeed) Prefix() EnvelopePrefix {
	return EnvelopePrefix{c: f.c, blocks: f.blocks[:len(f.blocks):len(f.blocks)]}
}

// Blocks returns how many blocks the feed has completed.
//
//hyperearvet:zeroalloc
func (f *EnvelopeFeed) Blocks() int { return len(f.blocks) }

// AppendLags appends the decimated lags of complete blocks [from, to) to
// dst, in lag order, and returns it: the envelope at lags
// [from·BlockStep(), to·BlockStep()), every Decimation()-th lag.
//
//hyperearvet:zeroalloc
func (f *EnvelopeFeed) AppendLags(dst []float64, from, to int) []float64 {
	for _, lags := range f.blocks[from:to] {
		dst = append(dst, lags...)
	}
	return dst
}

// blockBuf returns the scratch bandBlock needs: the block's half
// spectrum and the in-band bins.
//
//hyperearvet:zeroalloc
func (s *SegScratch) blockBuf(b *bandKernel, p *RealPlan) []complex128 {
	h := p.SpectrumLen() + b.inv.Size()
	if cap(s.spec) < h {
		s.spec = make([]complex128, h)
	}
	return s.spec[:h]
}

// bandBlock is the band-limited analytic matched filter on one
// overlap-save block: the block's first len(out) ≤ step/D decimated lags
// from its input in, at most n = p.Size() samples and zero past its end.
//
// The block's product spectrum X·conj(T) has energy only in the
// template's band. Doubling its positive-frequency bins and dropping the
// negative ones gives the spectrum of the analytic correlation
// z = r + i·H(r), and sampling z at every D-th lag folds bin k onto
// k mod n/D. The in-band bins span at most n/D, so they land on distinct
// slots and one complex inverse of n/D points yields z(D·m) exactly — the
// envelope |z| on the decimated grid, carrier phase included, with no
// full-rate transform. z is the block's circular analytic correlation:
// its quadrature aliases the template Hilbert kernel's tail past the
// block edges (DESIGN.md §8, "Segmented matched filtering").
//
//hyperearvet:zeroalloc
func bandBlock(out, in []float64, b *bandKernel, p *RealPlan, buf []complex128) {
	fx := buf[:p.SpectrumLen()]
	y := buf[len(fx):]
	p.ForwardReal(fx, in)
	// Bin k lands on slot k mod n/d: the kept bins run from slot lo mod
	// n/d to the end and wrap to the front. They fill every slot unless
	// d = 1, where they are bins 0..n/2 of n slots and the rest are zero.
	w := fx[b.lo : b.lo+len(b.spec)]
	k := b.lo % len(y)
	n1 := min(len(w), len(y)-k)
	head, tail := y[k:k+n1], y[:len(w)-n1]
	for i, t := range b.spec[:len(head)] {
		head[i] = w[i] * t
	}
	for i, t := range b.spec[n1:][:len(tail)] {
		tail[i] = w[n1+i] * t
	}
	clear(y[len(w):])
	b.inv.inverseBitReversed(y)
	rev := b.inv.rev
	for m := range out {
		v := y[rev[m]]
		out[m] = math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
	}
}

// CorrelateWindow writes the exact correlation lags dst[i] = r[from+i],
// r[k] = Σ_j x[k+j]·ref[j], by direct summation over the samples, with x
// implicitly zero outside [0, len(x)). It is the full-rate timing half
// of the matched filter: the detector picks candidates on the decimated
// envelope, then reads r only at the few lags around each accepted peak.
// Each lag sums j in ascending order whatever the window, so a lag's
// value depends on the samples alone — not on block layout or chunking.
//
//hyperearvet:zeroalloc
func (c *Correlator) CorrelateWindow(dst, x []float64, from int) {
	dotWindow(dst, x, c.ref, from)
}

// QuadratureWindow writes dst[i] = q[from+i], q[k] = Σ_j x[k+j]·h[j], where
// h is the discrete Hilbert transform of the template truncated where its
// tail is negligible (see hilbertTemplate). r and q are the in-phase and
// quadrature parts of the analytic correlation, so sqrt(r² + q²) is the
// full-rate Hilbert envelope at those lags. The truncated template is
// built once per Correlator, on first use.
//
//hyperearvet:zeroalloc
func (c *Correlator) QuadratureWindow(dst, x []float64, from int) {
	c.hilbOnce.Do(c.buildHilbert)
	dotWindow(dst, x, c.hilb, from-c.hilbLead)
}

func (c *Correlator) buildHilbert() { c.hilb, c.hilbLead = hilbertTemplate(c.ref) }

// QuadratureLead returns how far QuadratureWindow's reads reach past
// CorrelateWindow's on each side: a window from lag a to lag b reads the
// samples [a−lead, b+RefLen()+lead), lead the truncated Hilbert
// template's margin. Like QuadratureWindow it builds the template on
// first use, once per Correlator; every later call allocates nothing.
//
//hyperearvet:zeroalloc
func (c *Correlator) QuadratureLead() int {
	c.hilbOnce.Do(c.buildHilbert)
	return c.hilbLead
}

// hilbertTailRel bounds the truncated Hilbert template's tail: lags are
// kept out to the last one whose magnitude reaches this fraction of the
// template's peak magnitude (band-pass templates decay to it within a few
// hundred lags; DESIGN.md §8).
const hilbertTailRel = 1e-7

// hilbertMaxLead caps the truncation margin on each side of the template.
const hilbertMaxLead = 4096

// hilbertTemplate returns the discrete Hilbert transform of ref — the
// convolution with 2/(πn) at odd n, the response −i·sign(f) with DC and
// Nyquist zeroed, as EnvelopeInto's quadrature — over lags [−lead,
// len(ref)+lead), lead the truncation margin on each side.
func hilbertTemplate(ref []float64) ([]float64, int) {
	// inv[n+off] = 1/n over every offset n = j − hilbertMaxLead − i the
	// sum below can reach; only odd n are read.
	off := len(ref) + hilbertMaxLead
	inv := make([]float64, 2*off)
	for n := 1 - off; n < off; n++ {
		if n != 0 {
			inv[n+off] = 1 / float64(n)
		}
	}
	full := make([]float64, len(ref)+2*hilbertMaxLead)
	for j := range full {
		var s float64
		for i := (j + hilbertMaxLead + 1) & 1; i < len(ref); i += 2 {
			s += ref[i] * inv[j-hilbertMaxLead-i+off]
		}
		full[j] = s * (2 / math.Pi)
	}
	peak := 0.0
	for _, v := range ref {
		peak = math.Max(peak, math.Abs(v))
	}
	lead := 0
	for l := hilbertMaxLead; l > 0; l-- {
		if math.Abs(full[hilbertMaxLead-l]) >= hilbertTailRel*peak ||
			math.Abs(full[hilbertMaxLead+len(ref)+l-1]) >= hilbertTailRel*peak {
			lead = l
			break
		}
	}
	// Copy out the kept lags so the Correlator does not pin the
	// maximum-margin array.
	return append([]float64(nil), full[hilbertMaxLead-lead:hilbertMaxLead+len(ref)+lead]...), lead
}

// dotWindow writes dst[i] = Σ_j x[from+i+j]·tpl[j] with x zero outside
// [0, len(x)). Interior lags run four at a time — four independent
// accumulators sharing each template load — and every lag sums j in
// ascending order, so the grouping never changes a result bit: an edge
// lag's clipped sum equals its zero-padded one, since adding ±0 leaves a
// sum unchanged.
//
//hyperearvet:zeroalloc
func dotWindow(dst, x, tpl []float64, from int) {
	n := len(tpl)
	i := 0
	for ; i < len(dst); i++ {
		k := from + i
		if k >= 0 && i+3 < len(dst) && k+3+n <= len(x) {
			x0 := x[k : k+n]
			x1 := x[k+1 : k+1+n][:len(x0)]
			x2 := x[k+2 : k+2+n][:len(x0)]
			x3 := x[k+3 : k+3+n][:len(x0)]
			tpl := tpl[:len(x0)]
			var s0, s1, s2, s3 float64
			for j, t := range tpl {
				s0 += x0[j] * t
				s1 += x1[j] * t
				s2 += x2[j] * t
				s3 += x3[j] * t
			}
			dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
			i += 3
			continue
		}
		lo, hi := max(0, -k), min(n, len(x)-k)
		var s float64
		for j := lo; j < hi; j++ {
			s += x[k+j] * tpl[j]
		}
		dst[i] = s
	}
}

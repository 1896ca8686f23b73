package dsp

import (
	"fmt"
	"math"
	"sync"
)

// Plan holds the precomputed tables of one power-of-two FFT size for the
// package's radix-4 kernel: the bit-reversal permutation and one
// contiguous twiddle table per radix-4 stage. Sharing a Plan across calls
// removes the per-call sin/cos recurrence of a naive kernel (better
// accuracy and speed) and, combined with the package's scratch pools,
// makes the FFT hot path allocation-free in steady state. Plans are
// immutable after construction and safe for concurrent use.
//
// The kernel comes in two matched forms over the same tables. The
// forward form is decimation in time: it takes its input in bit-reversed
// order and leaves the spectrum in natural order. The inverse form is
// decimation in frequency: it takes a natural-order spectrum and leaves
// the unscaled inverse in bit-reversed order. Callers place or read
// samples through rev as they copy them — the packed real path, RealPlan,
// and the band-limited matched filter — so no separate permutation pass
// runs; only the Forward oracle adds one to keep a natural-order
// contract.
//
// Stages run over blocks of length L = first·4^s. The forward form's
// first stage and the inverse form's last are twiddle-free: radix-4 at
// L = 4 (dit4/dif4 over blocks of four) when log2 n is even, a single
// radix-2 pass at L = 2 (radix2) when it is odd. The radix-4 stages in
// between (ditStages, difStages) combine the four bit-reversed quarters
// of each block — sub-transforms of the residues 0, 2, 1, 3 mod 4 — with
// the twiddles w^k, w^2k, w^3k, w = exp(-2πi/L), read from tw[s][k]; the
// inverse applies their conjugates in the mirrored order.
type Plan struct {
	n   int
	rev []int32 // bit-reversal permutation: rev[i] = bit-reverse of i
	// odd reports an odd log2 n: the first stage is radix-2, not radix-4.
	odd bool
	// tw[s] holds the twiddles of the s-th radix-4 stage after the
	// twiddle-free first one (block length 16·4^s for even log2 n,
	// 8·4^s for odd), L/4 butterflies each.
	tw [][]twiddle3
}

// twiddle3 is one radix-4 butterfly's twiddles w^k, w^2k, w^3k, stored
// together so a butterfly reads one contiguous 48-byte record.
type twiddle3 struct{ w1, w2, w3 complex128 }

// planCache maps transform size -> *Plan. Sizes repeat heavily in a
// localization service (one per template/recording length), so the cache
// stays tiny while every correlation after the first reuses its tables.
var planCache sync.Map

// PlanFor returns the shared FFT plan for size n (a power of two). The
// steady state is one lock-free cache hit; the first call per size pays
// the table build once.
//
//hyperearvet:zeroalloc
func PlanFor(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("dsp: FFT plan size %d is not a power of two", n)
	}
	//hyperearvet:allow zeroalloc sync.Map.Load boxes the int key; sizes repeat so the box is the only steady-state byte
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan), nil
	}
	//hyperearvet:allow zeroalloc first-use plan build, amortized across every later correlation at this size
	v, _ := planCache.LoadOrStore(n, newPlan(n))
	return v.(*Plan), nil
}

// planFor is PlanFor for callers that have already validated n.
//
//hyperearvet:zeroalloc
func planFor(n int) *Plan {
	p, err := PlanFor(n)
	if err != nil {
		panic(err)
	}
	return p
}

func newPlan(n int) *Plan {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	p := &Plan{n: n, rev: make([]int32, n), odd: bits%2 == 1}
	for i := 1; i < n; i++ {
		p.rev[i] = p.rev[i>>1]>>1 | int32(i&1)<<(bits-1)
	}
	l := 16
	if p.odd {
		l = 8
	}
	for ; l <= n; l *= 4 {
		tw := make([]twiddle3, l/4)
		for k := range tw {
			tw[k] = twiddle3{twiddle(k, l), twiddle(2*k, l), twiddle(3*k, l)}
		}
		p.tw = append(p.tw, tw)
	}
	return p
}

// twiddle returns exp(-2πij/l).
func twiddle(j, l int) complex128 {
	s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(l))
	return complex(c, s)
}

// Size returns the transform length the plan was built for.
//
//hyperearvet:zeroalloc
func (p *Plan) Size() int { return p.n }

// Forward computes the in-place forward DFT of x. len(x) must equal
// p.Size(). No production path calls it: it is the complex reference
// TestRealPlanForwardMatchesComplexPlan pins RealPlan.ForwardReal against
// and the forward half of TestPlanRoundTripAllSizes, itself checked by
// TestPlanMatchesNaiveDFT.
//
//hyperearvet:zeroalloc
func (p *Plan) Forward(x []complex128) {
	p.checkLen(x)
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if p.odd {
		radix2(x)
	} else {
		for i := 0; i+3 < len(x); i += 4 {
			b := x[i : i+4 : i+4]
			b[0], b[1], b[2], b[3] = dit4(b[0], b[2], b[1], b[3])
		}
	}
	p.ditStages(x)
}

// inverseBitReversed runs the whole inverse decimation-in-frequency
// kernel in place and leaves the unscaled inverse in bit-reversed order:
// output m at x[rev[m]]. Callers that read only some outputs (the
// band-limited matched filter) index through rev instead of paying for a
// permutation pass.
//
//hyperearvet:zeroalloc
func (p *Plan) inverseBitReversed(x []complex128) {
	p.difStages(x)
	if p.odd {
		radix2(x)
		return
	}
	for i := 0; i+3 < len(x); i += 4 {
		b := x[i : i+4 : i+4]
		b[0], b[1], b[2], b[3] = dif4(b[0], b[1], b[2], b[3])
	}
}

//hyperearvet:zeroalloc
func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d applied to %d samples", p.n, len(x)))
	}
}

// ditStages runs the twiddled radix-4 stages of the forward
// decimation-in-time kernel. x holds the bit-reversed input after the
// twiddle-free first stage (radix2, or dit4 over blocks of four) and
// ends as the natural-order spectrum.
//
//hyperearvet:zeroalloc
func (p *Plan) ditStages(x []complex128) {
	for _, tw := range p.tw {
		q := len(tw)
		for s := 0; s < len(x); s += 4 * q {
			q0 := x[s : s+q]
			q1 := x[s+q : s+2*q][:len(q0)]
			q2 := x[s+2*q : s+3*q][:len(q0)]
			q3 := x[s+3*q : s+4*q][:len(q0)]
			tw := tw[:len(q0)]
			for k := range tw {
				// Quarters hold the residues 0, 2, 1, 3 mod 4.
				w := &tw[k]
				q0[k], q1[k], q2[k], q3[k] = dit4(q0[k], q2[k]*w.w1, q1[k]*w.w2, q3[k]*w.w3)
			}
		}
	}
}

// difStages runs the twiddled radix-4 stages of the inverse
// decimation-in-frequency kernel, ditStages' mirror: x holds a
// natural-order spectrum, and after these stages plus the twiddle-free
// last one (radix2, or dif4 over blocks of four) it holds the unscaled
// inverse in bit-reversed order (output i at x[rev[i]]).
//
//hyperearvet:zeroalloc
func (p *Plan) difStages(x []complex128) {
	for s := len(p.tw) - 1; s >= 0; s-- {
		tw := p.tw[s]
		q := len(tw)
		for b := 0; b < len(x); b += 4 * q {
			q0 := x[b : b+q]
			q1 := x[b+q : b+2*q][:len(q0)]
			q2 := x[b+2*q : b+3*q][:len(q0)]
			q3 := x[b+3*q : b+4*q][:len(q0)]
			tw := tw[:len(q0)]
			for k := range tw {
				w := &tw[k]
				y0, y2, y1, y3 := dif4(q0[k], q1[k], q2[k], q3[k])
				q0[k] = y0
				q1[k] = mulConj(y2, w.w2)
				q2[k] = mulConj(y1, w.w1)
				q3[k] = mulConj(y3, w.w3)
			}
		}
	}
}

// radix2 is the twiddle-free radix-2 pass over adjacent pairs: the first
// forward stage and the last inverse stage when log2 n is odd.
//
//hyperearvet:zeroalloc
func radix2(x []complex128) {
	for i := 0; i+1 < len(x); i += 2 {
		b := x[i : i+2 : i+2]
		b[0], b[1] = b[0]+b[1], b[0]-b[1]
	}
}

// dit4 is the forward radix-4 butterfly on the (already twiddled)
// sub-transform values of residues 0..3, returning outputs k, k+L/4,
// k+L/2, k+3L/4.
//
//hyperearvet:zeroalloc
func dit4(b0, b1, b2, b3 complex128) (complex128, complex128, complex128, complex128) {
	t0, t1, t2, d := b0+b2, b0-b2, b1+b3, b1-b3
	t3 := complex(imag(d), -real(d)) // -i·(b1-b3)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

// dif4 is the inverse radix-4 butterfly on inputs k, k+L/4, k+L/2,
// k+3L/4, returning the (not yet twiddled) values of residues 0, 2, 1, 3
// — the bit-reversed quarter order.
//
//hyperearvet:zeroalloc
func dif4(a0, a1, a2, a3 complex128) (complex128, complex128, complex128, complex128) {
	t0, t1, t2, d := a0+a2, a0-a2, a1+a3, a1-a3
	t3 := complex(-imag(d), real(d)) // +i·(a1-a3)
	return t0 + t2, t0 - t2, t1 + t3, t1 - t3
}

// mulConj returns a·conj(w).
//
//hyperearvet:zeroalloc
func mulConj(a, w complex128) complex128 {
	return complex(real(a)*real(w)+imag(a)*imag(w), imag(a)*real(w)-real(a)*imag(w))
}

// Scratch pools. Buffers are handed out at the requested length (grown as
// needed) and zero-filled beyond the prefix the caller promises to write,
// so callers can rely on zero padding without paying to clear regions they
// overwrite anyway. Returning them keeps the steady state allocation-free.

var complexPool = sync.Pool{New: func() any { s := make([]complex128, 0, 4096); return &s }}

// getComplexPrefix returns a pooled buffer of length n whose elements from
// written onward are zeroed. Callers that overwrite a known prefix [0,
// written) pass it here so only the tail is cleared; written == n skips
// clearing entirely (the real-FFT pack loops write every element).
//
//hyperearvet:pooled
//hyperearvet:zeroalloc
func getComplexPrefix(n, written int) *[]complex128 {
	p := complexPool.Get().(*[]complex128)
	if cap(*p) < n {
		*p = make([]complex128, n)
		return p
	}
	*p = (*p)[:n]
	for i := written; i < n; i++ {
		(*p)[i] = 0
	}
	return p
}

//hyperearvet:zeroalloc
func putComplex(p *[]complex128) { complexPool.Put(p) }

// resizeF64 returns dst with length n, reusing its backing array when
// possible.
//
//hyperearvet:zeroalloc
func resizeF64(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// corrFFTSize returns the real-FFT size for a linear correlation or
// convolution of lx- and lr-sample operands: the result spans lx+lr-1
// samples, so that is what must fit without circular wraparound. Rounding
// up from lx+lr instead would double the transform whenever the sum lands
// on an exact power of two.
//
//hyperearvet:zeroalloc
func corrFFTSize(lx, lr int) int {
	n := NextPow2(lx + lr - 1)
	if n < 2 {
		n = 2
	}
	return n
}

// CrossCorrelateInto is CrossCorrelate writing its result into dst
// (grown/reused as needed) and returning it. With a warm plan cache and a
// caller-reused dst it performs zero heap allocations. Both operands are
// real, so the whole round trip runs on the packed half-spectrum path
// (RealPlan): one N/2 complex transform per FFT and half the scratch bytes
// of the complex path.
//
//hyperearvet:zeroalloc
func CrossCorrelateInto(dst, x, ref []float64) []float64 {
	if len(x) == 0 || len(ref) == 0 {
		return dst[:0]
	}
	n := corrFFTSize(len(x), len(ref))
	p := realPlanFor(n)
	h := p.SpectrumLen()
	fx := getComplexPrefix(h, h)
	fr := getComplexPrefix(h, h)
	p.ForwardReal(*fx, x)
	p.ForwardReal(*fr, ref)
	// Correlation: X(f)·conj(R(f)) over the half spectrum.
	for i, c := range *fr {
		(*fx)[i] *= complex(real(c), -imag(c))
	}
	dst = resizeF64(dst, len(x))
	p.InverseReal(dst, *fx)
	putComplex(fx)
	putComplex(fr)
	return dst
}

// EnvelopeInto is Envelope writing its result into dst (grown/reused as
// needed) and returning it. dst must not overlap x: it stages the Hilbert
// transform, so the steady state borrows only one pooled half spectrum.
// The whole round trip runs on the packed real path: the Hilbert
// transform H(x) has spectrum -i·sign(f)·X(f), which is Hermitian (H(x)
// is real), so InverseReal reconstructs it with half the butterflies of a
// complex analytic-signal inverse — and the in-phase component is just x
// itself.
//
//hyperearvet:zeroalloc
func EnvelopeInto(dst, x []float64) []float64 {
	if len(x) == 0 {
		return dst[:0]
	}
	rp := realPlanFor(max(2, NextPow2(len(x))))
	h := rp.SpectrumLen()
	spec := getComplexPrefix(h, h)
	dst = resizeF64(dst, len(x))
	rp.ForwardReal(*spec, x)
	quadrature(*spec, *spec)
	rp.InverseReal(dst, *spec)
	foldEnvelope(dst, x)
	putComplex(spec)
	return dst
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

// Correlator cross-correlates many signals against one fixed reference
// template, caching the template's conjugated half spectrum per transform
// size. This is the matched-filter object a detector holds: signal lengths
// repeat (stream blocks, fixed recording windows), so after warm-up each
// call runs one forward real FFT instead of two, and the cached spectrum
// occupies n/2+1 bins instead of n. Safe for concurrent use.
type Correlator struct {
	ref []float64

	mu   sync.RWMutex
	spec map[int][]complex128 // size -> conj(RFFT(zero-padded ref)), n/2+1 bins

	// bandK is the band-limited analytic kernel at SegmentSize(), and
	// hilb the truncated Hilbert template (hilbLead lags before ref[0]);
	// each is built once, on first use.
	bandOnce sync.Once
	bandK    *bandKernel
	hilbOnce sync.Once
	hilb     []float64
	hilbLead int
}

// NewCorrelator builds a Correlator for the given reference template. The
// template is copied.
func NewCorrelator(ref []float64) *Correlator {
	r := make([]float64, len(ref))
	copy(r, ref)
	return &Correlator{ref: r, spec: make(map[int][]complex128)}
}

// RefLen returns the template length.
//
//hyperearvet:zeroalloc
func (c *Correlator) RefLen() int { return len(c.ref) }

// spectrum returns the cached conjugated reference half spectrum at real
// transform size n, computing it on first use.
//
//hyperearvet:zeroalloc
func (c *Correlator) spectrum(n int) []complex128 {
	c.mu.RLock()
	s, ok := c.spec[n]
	c.mu.RUnlock()
	if ok {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.spec[n]; ok {
		return s
	}
	p := realPlanFor(n)
	//hyperearvet:allow zeroalloc cache-miss spectrum build; every later call at this size returns the cached slice
	s = make([]complex128, p.SpectrumLen())
	p.ForwardReal(s, c.ref)
	for i, v := range s {
		s[i] = complex(real(v), -imag(v))
	}
	c.spec[n] = s
	return s
}

// CrossCorrelateInto computes CrossCorrelate(x, ref) into dst using the
// cached reference spectrum.
//
//hyperearvet:zeroalloc
func (c *Correlator) CrossCorrelateInto(dst, x []float64) []float64 {
	if len(x) == 0 || len(c.ref) == 0 {
		return dst[:0]
	}
	n := corrFFTSize(len(x), len(c.ref))
	dst = resizeF64(dst, len(x))
	c.correlateAt(dst, x, n)
	return dst
}

// correlateAt runs one n-point circular matched-filter pass: the first
// len(dst) lags of IFFT(RFFT(x)·conj(RFFT(ref))) at real transform size n.
// When n ≥ len(x)+RefLen()-1 the circularity never wraps and the output is
// the linear correlation (CrossCorrelateInto); overlap-save callers pick a
// smaller fixed n and read only the alias-free prefix.
//
//hyperearvet:zeroalloc
func (c *Correlator) correlateAt(dst, x []float64, n int) {
	p := realPlanFor(n)
	spec := c.spectrum(n)
	h := p.SpectrumLen()
	fx := getComplexPrefix(h, h)
	p.ForwardReal(*fx, x)
	for i, s := range spec {
		(*fx)[i] *= s
	}
	p.InverseReal(dst, *fx)
	putComplex(fx)
}

// CorrelateCircularInto computes dst[i] = Σ_j x[i+j]·ref[j] for lags i in
// [0, len(dst)) with one n-point circular correlation (n a power of two,
// len(x) ≤ n). The lags are alias-free only while i+RefLen()-1 stays below
// n, so len(dst) must not exceed n-RefLen()+1 — the overlap-save step. A
// streaming matched filter slides x forward by that step between calls and
// reuses one fixed transform size, so the template spectrum is computed
// exactly once for the whole stream.
//
// No production path calls it: TestCorrelateCircularIntoMatchesDirect and
// TestRealKernelsZeroAllocs use it to check correlateAt's circular mode
// against a direct sum and its steady state for allocations.
//
//hyperearvet:zeroalloc
func (c *Correlator) CorrelateCircularInto(dst, x []float64, n int) {
	if len(dst) == 0 {
		return
	}
	if !IsPow2(n) || n < 2 {
		panic(fmt.Sprintf("dsp: circular correlation size %d is not a power of two ≥ 2", n))
	}
	if len(x) > n {
		panic(fmt.Sprintf("dsp: circular correlation input %d exceeds transform size %d", len(x), n))
	}
	if step := n - len(c.ref) + 1; len(dst) > step {
		panic(fmt.Sprintf("dsp: circular correlation output %d exceeds alias-free step %d (n=%d, ref=%d)",
			len(dst), step, n, len(c.ref)))
	}
	c.correlateAt(dst, x, n)
}

// CrossCorrelate computes CrossCorrelate(x, ref) using the cached
// reference spectrum. No production path calls it: through it,
// TestCorrelatorMatchesCrossCorrelate and TestCorrelatorCopiesTemplate
// check the cached-spectrum path (CrossCorrelateInto, which the Doppler
// figure runs) against the free CrossCorrelate.
func (c *Correlator) CrossCorrelate(x []float64) []float64 {
	if len(x) == 0 || len(c.ref) == 0 {
		return nil
	}
	return c.CrossCorrelateInto(make([]float64, len(x)), x)
}

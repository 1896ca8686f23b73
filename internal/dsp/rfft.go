package dsp

import (
	"fmt"
	"math"
	"sync"
)

// RealPlan is the real-input fast path of the FFT layer: an N-point
// transform of real samples computed with a single N/2-point complex FFT
// plus an O(N) split/merge pass. Every hot DSP kernel in this package
// (matched filter, Hilbert envelope, FFT convolution) consumes
// real audio, so packing adjacent sample pairs x[2k], x[2k+1] into one
// complex value halves both the transform work and the bytes moved
// through the butterflies.
//
// The spectrum of a real signal is Hermitian (X[N-k] = conj(X[k])), so
// only the half spectrum X[0..N/2] — SpectrumLen() == N/2+1 bins — is
// ever materialized. X[0] (DC) and X[N/2] (Nyquist) are real.
//
// Like Plan, a RealPlan is immutable after construction, cached per size,
// and safe for concurrent use.
type RealPlan struct {
	n    int   // real transform length (power of two, ≥ 2)
	half *Plan // complex plan of size n/2
	// w[k] = exp(-2πik/n) for k in [0, n/4]: the post-FFT merge twiddles.
	// Only the first quadrant is stored; the pair loop walks k and n/2-k
	// together and derives the mirrored twiddle by symmetry.
	w []complex128
}

// realPlanCache maps real transform size -> *RealPlan (same rationale as
// planCache: sizes repeat per template/recording length).
var realPlanCache sync.Map

// RealPlanFor returns the shared real-FFT plan for size n (a power of two,
// at least 2). Like PlanFor, the steady state is one cache hit.
//
//hyperearvet:zeroalloc
func RealPlanFor(n int) (*RealPlan, error) {
	if !IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("dsp: real FFT plan size %d is not a power of two ≥ 2", n)
	}
	//hyperearvet:allow zeroalloc sync.Map.Load boxes the int key; sizes repeat so the box is the only steady-state byte
	if v, ok := realPlanCache.Load(n); ok {
		return v.(*RealPlan), nil
	}
	//hyperearvet:allow zeroalloc first-use plan build, amortized across every later correlation at this size
	v, _ := realPlanCache.LoadOrStore(n, newRealPlan(n))
	return v.(*RealPlan), nil
}

// realPlanFor is RealPlanFor for callers that have already validated n.
//
//hyperearvet:zeroalloc
func realPlanFor(n int) *RealPlan {
	p, err := RealPlanFor(n)
	if err != nil {
		panic(err)
	}
	return p
}

func newRealPlan(n int) *RealPlan {
	m := n / 2
	p := &RealPlan{n: n, half: planFor(m)}
	p.w = make([]complex128, m/2+1)
	for k := range p.w {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.w[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return p
}

// Size returns the real transform length the plan was built for.
//
//hyperearvet:zeroalloc
func (p *RealPlan) Size() int { return p.n }

// SpectrumLen returns the half-spectrum length n/2+1 (bins 0..Nyquist).
//
//hyperearvet:zeroalloc
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

// ForwardReal computes the half spectrum of the real signal x into spec.
// len(spec) must be SpectrumLen(); len(x) may be at most Size() — shorter
// inputs are implicitly zero-padded, so callers never materialize a padded
// copy. spec[0] and spec[n/2] come out with zero imaginary parts.
//
//hyperearvet:zeroalloc
func (p *RealPlan) ForwardReal(spec []complex128, x []float64) {
	m := p.n / 2
	if len(spec) != m+1 {
		panic(fmt.Sprintf("dsp: real plan size %d needs a %d-bin spectrum, got %d", p.n, m+1, len(spec)))
	}
	if len(x) > p.n {
		panic(fmt.Sprintf("dsp: real plan size %d applied to %d samples", p.n, len(x)))
	}
	// Pack z[k] = x[2k] + i·x[2k+1] and run the twiddle-free first stage
	// in the same loop: each first-stage block reads its inputs r + t·m/2
	// (radix-2) or r + t·m/4 (radix-4) straight from x, r = rev[block
	// start], and writes its outputs to the block in order. The
	// decimation-in-time kernel's bit-reversed input order is never
	// materialized, so there is no permutation pass, and every slot is
	// written, so the buffer needs no pre-clearing.
	z := spec[:m]
	rev := p.half.rev
	switch {
	case m == 1:
		z[0] = packed(x, 0)
	case p.half.odd:
		h := m / 2
		for i := 0; i+1 < m; i += 2 {
			r := int(rev[i])
			a, b := packed(x, r), packed(x, r+h)
			z[i], z[i+1] = a+b, a-b
		}
	default:
		q := m / 4
		for i := 0; i+3 < m; i += 4 {
			r := int(rev[i])
			blk := z[i : i+4 : i+4]
			blk[0], blk[1], blk[2], blk[3] = dit4(packed(x, r), packed(x, r+q), packed(x, r+2*q), packed(x, r+3*q))
		}
	}
	p.half.ditStages(z)

	// Split Z[k] = FFT(z) into the even/odd-sample spectra and merge:
	//   E[k] = (Z[k] + conj(Z[m-k]))/2
	//   O[k] = (Z[k] - conj(Z[m-k]))/(2i)
	//   X[k]   = E[k] + W^k·O[k]
	//   X[m-k] = conj(E[k] - W^k·O[k])      (W = exp(-2πi/n))
	z0 := spec[0]
	spec[0] = complex(real(z0)+imag(z0), 0)
	spec[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= m/2; k++ {
		j := m - k
		a, b := spec[k], spec[j]
		er := 0.5 * (real(a) + real(b))
		ei := 0.5 * (imag(a) - imag(b))
		or := 0.5 * (imag(a) + imag(b))
		oi := 0.5 * (real(b) - real(a))
		wr, wi := real(p.w[k]), imag(p.w[k])
		tr := wr*or - wi*oi
		ti := wr*oi + wi*or
		spec[k] = complex(er+tr, ei+ti)
		spec[j] = complex(er-tr, ti-ei)
	}
}

// InverseReal reconstructs the leading len(dst) samples of the real signal
// whose half spectrum is spec (len SpectrumLen()), including the 1/N
// scaling. len(dst) may be at most Size(); correlation callers only ever
// need the first len(x) lags, so the trailing zero-padding region is never
// written. spec is used as scratch and destroyed.
//
//hyperearvet:zeroalloc
func (p *RealPlan) InverseReal(dst []float64, spec []complex128) {
	m := p.n / 2
	if len(spec) != m+1 {
		panic(fmt.Sprintf("dsp: real plan size %d needs a %d-bin spectrum, got %d", p.n, m+1, len(spec)))
	}
	if len(dst) > p.n {
		panic(fmt.Sprintf("dsp: real plan size %d asked for %d samples", p.n, len(dst)))
	}
	// Merge the half spectrum back into the packed form Z[k] = E[k]+i·O[k]
	// (the exact inverse of the ForwardReal split):
	//   E[k]     = (X[k] + conj(X[m-k]))/2
	//   W^k·O[k] = (X[k] - conj(X[m-k]))/2
	// The inverse's 1/m scale is folded into the merge's halving: scale
	// is a power of two, so scaling here rounds exactly like scaling the
	// output, and no separate pass runs.
	scale := 0.5 / float64(m)
	x0, xm := real(spec[0]), real(spec[m])
	spec[0] = complex(scale*(x0+xm), scale*(x0-xm))
	for k := 1; k <= m/2; k++ {
		j := m - k
		a, b := spec[k], spec[j]
		er := scale * (real(a) + real(b))
		ei := scale * (imag(a) - imag(b))
		tr := scale * (real(a) - real(b))
		ti := scale * (imag(a) + imag(b))
		// O[k] = conj(W^k)·(W^k·O[k])
		wr, wi := real(p.w[k]), imag(p.w[k])
		or := wr*tr + wi*ti
		oi := wr*ti - wi*tr
		// Z[k] = E + i·O; Z[m-k] = conj(E) + i·conj(O).
		spec[k] = complex(er-oi, ei+or)
		spec[j] = complex(er+oi, or-ei)
	}
	// Run the decimation-in-frequency stages, then the twiddle-free last
	// stage fused with the unpack: block outputs land at bit-reversed
	// slots rev[i+j] = r + (0, m/2, m/4, 3m/4)[j], r = rev[i], and are
	// stored straight to those samples of dst, so neither a permutation
	// nor a scaling pass runs.
	z := spec[:m]
	p.half.difStages(z)
	rev := p.half.rev
	switch {
	case m == 1:
		unpack(dst, 0, z[0])
	case p.half.odd:
		h := m / 2
		for i := 0; i+1 < m; i += 2 {
			r := int(rev[i])
			a, b := z[i], z[i+1]
			unpack(dst, r, a+b)
			unpack(dst, r+h, a-b)
		}
	default:
		q := m / 4
		for i := 0; i+3 < m; i += 4 {
			r := int(rev[i])
			blk := z[i : i+4 : i+4]
			y0, y2, y1, y3 := dif4(blk[0], blk[1], blk[2], blk[3])
			unpack(dst, r, y0)
			unpack(dst, r+q, y1)
			unpack(dst, r+2*q, y2)
			unpack(dst, r+3*q, y3)
		}
	}
}

// packed returns the packed sample pair z[k] = x[2k] + i·x[2k+1] of a
// real signal implicitly zero-padded past len(x).
//
//hyperearvet:zeroalloc
func packed(x []float64, k int) complex128 {
	if i := 2 * k; i+1 < len(x) {
		return complex(x[i], x[i+1])
	} else if i < len(x) {
		return complex(x[i], 0)
	}
	return 0
}

// unpack stores the packed pair v = z[k] into dst[2k] and dst[2k+1],
// dropping samples past len(dst).
//
//hyperearvet:zeroalloc
func unpack(dst []float64, k int, v complex128) {
	if i := 2 * k; i+1 < len(dst) {
		dst[i], dst[i+1] = real(v), imag(v)
	} else if i < len(dst) {
		dst[i] = real(v)
	}
}

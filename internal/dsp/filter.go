package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter defined by its tap coefficients.
type FIR struct {
	taps []float64
}

// Taps returns a copy of the filter coefficients.
func (f *FIR) Taps() []float64 {
	out := make([]float64, len(f.taps))
	copy(out, f.taps)
	return out
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.taps) }

// NewLowPass designs a linear-phase low-pass FIR with the windowed-sinc
// method: cutoff in Hz, fs in Hz, ntaps odd (incremented if even). A
// Hamming window shapes the sidelobes.
func NewLowPass(cutoff, fs float64, ntaps int) (*FIR, error) {
	if cutoff <= 0 || cutoff >= fs/2 {
		return nil, fmt.Errorf("dsp: low-pass cutoff %v Hz outside (0, fs/2=%v)", cutoff, fs/2)
	}
	if ntaps < 3 {
		return nil, fmt.Errorf("dsp: need at least 3 taps, got %d", ntaps)
	}
	if ntaps%2 == 0 {
		ntaps++
	}
	taps := make([]float64, ntaps)
	fc := cutoff / fs // normalized (cycles/sample)
	mid := float64(ntaps-1) / 2
	win := Hamming(ntaps)
	var sum float64
	for i := range taps {
		t := float64(i) - mid
		taps[i] = 2 * fc * sinc(2*fc*t) * win[i]
		sum += taps[i]
	}
	// Normalize DC gain to exactly 1.
	for i := range taps {
		taps[i] /= sum
	}
	return &FIR{taps: taps}, nil
}

// NewBandPass designs a linear-phase band-pass FIR passing [lo, hi] Hz,
// built as the difference of two low-pass designs. This is the filter
// HyperEar's ASP stage uses to isolate the 2-6.4 kHz chirp band from
// ambient noise (human voice < 2 kHz is rejected entirely, §VII-E).
func NewBandPass(lo, hi, fs float64, ntaps int) (*FIR, error) {
	if lo >= hi {
		return nil, fmt.Errorf("dsp: band-pass lo %v >= hi %v", lo, hi)
	}
	lpHi, err := NewLowPass(hi, fs, ntaps)
	if err != nil {
		return nil, fmt.Errorf("dsp: band-pass upper edge: %w", err)
	}
	lpLo, err := NewLowPass(lo, fs, ntaps)
	if err != nil {
		return nil, fmt.Errorf("dsp: band-pass lower edge: %w", err)
	}
	taps := make([]float64, lpHi.Len())
	for i := range taps {
		taps[i] = lpHi.taps[i] - lpLo.taps[i]
	}
	return &FIR{taps: taps}, nil
}

// Apply filters x and returns a slice of the same length. The output is
// time-aligned with the input by compensating the (N-1)/2-sample group
// delay, so correlation peak positions are preserved. For long inputs the
// convolution runs via FFT overlap; for short inputs it runs directly.
func (f *FIR) Apply(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	var full []float64
	if len(x)*len(f.taps) > 1<<18 {
		full = fftConvolve(x, f.taps)
	} else {
		full = directConvolve(x, f.taps)
	}
	delay := (len(f.taps) - 1) / 2
	out := make([]float64, len(x))
	copy(out, full[delay:delay+len(x)])
	return out
}

func directConvolve(x, h []float64) []float64 {
	out := make([]float64, len(x)+len(h)-1)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j, hj := range h {
			out[i+j] += xi * hj
		}
	}
	return out
}

func fftConvolve(x, h []float64) []float64 {
	n := corrFFTSize(len(x), len(h))
	p := realPlanFor(n)
	hl := p.SpectrumLen()
	fx := getComplexPrefix(hl, hl)
	fh := getComplexPrefix(hl, hl)
	p.ForwardReal(*fx, x)
	p.ForwardReal(*fh, h)
	for i, v := range *fh {
		(*fx)[i] *= v
	}
	out := make([]float64, len(x)+len(h)-1)
	p.InverseReal(out, *fx)
	putComplex(fx)
	putComplex(fh)
	return out
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// MovingAverageInto applies the simple moving average (SMA) filter the
// paper uses for inertial noise removal (§V-A-1), writing into dst
// (grown/reused as needed) and returning it: y[t] is the unweighted mean
// of the previous n samples x[t-n+1..t]. The first n-1 outputs average
// the available prefix. n=4 at 100 Hz gives the paper's ≈15 Hz -3 dB
// cutoff. dst must not alias x: the filter reads x[i-n] after position
// i-n has been written.
//
//hyperearvet:zeroalloc
func MovingAverageInto(dst, x []float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	dst = resizeF64(dst, len(x))
	var sum float64
	for i, v := range x {
		sum += v
		if i >= n {
			sum -= x[i-n]
			dst[i] = sum / float64(n)
		} else {
			dst[i] = sum / float64(i+1)
		}
	}
	return dst
}

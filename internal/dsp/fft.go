// Package dsp implements the signal-processing primitives HyperEar builds
// on: an iterative radix-4 FFT, FFT-based cross-correlation, windowed-sinc
// FIR filter design, moving-average smoothing, window functions, sub-sample
// peak interpolation, and assorted level/energy utilities. Everything is
// written against the Go standard library only.
package dsp

import (
	"fmt"
	"math/bits"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two >= n (and >= 1).
//
//hyperearvet:zeroalloc
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
//
//hyperearvet:zeroalloc
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-place forward discrete Fourier transform of x using
// an iterative radix-4 Cooley-Tukey algorithm over a cached plan (see
// PlanFor). len(x) must be a power of two; otherwise an error is returned
// and x is unchanged.
func FFT(x []complex128) error {
	p, err := PlanFor(len(x))
	if err != nil {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", len(x))
	}
	p.Forward(x)
	return nil
}

// IFFT computes the in-place inverse DFT of x, including the 1/N scaling.
// len(x) must be a power of two.
func IFFT(x []complex128) error {
	p, err := PlanFor(len(x))
	if err != nil {
		return fmt.Errorf("dsp: IFFT length %d is not a power of two", len(x))
	}
	p.Inverse(x)
	return nil
}

// FFTReal transforms a real signal, zero-padding to the next power of two,
// and returns the complex spectrum (length NextPow2(len(x))). The transform
// runs on the packed real-input path (one N/2 complex FFT, see RealPlan);
// the negative-frequency half is filled in by Hermitian symmetry.
func FFTReal(x []float64) []complex128 {
	n := NextPow2(len(x))
	c := make([]complex128, n)
	if n < 2 {
		if len(x) == 1 {
			c[0] = complex(x[0], 0)
		}
		return c
	}
	p := realPlanFor(n)
	p.ForwardReal(c[:p.SpectrumLen()], x)
	for k := n/2 + 1; k < n; k++ {
		c[k] = complex(real(c[n-k]), -imag(c[n-k]))
	}
	return c
}

// Spectrum returns the single-sided magnitude spectrum of x and the
// corresponding frequency axis for sampling rate fs.
func Spectrum(x []float64, fs float64) (freq, mag []float64) {
	c := FFTReal(x)
	n := len(c)
	half := n/2 + 1
	freq = make([]float64, half)
	mag = make([]float64, half)
	for i := 0; i < half; i++ {
		freq[i] = float64(i) * fs / float64(n)
		mag[i] = cmplx.Abs(c[i])
	}
	return freq, mag
}

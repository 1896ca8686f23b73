// Package dsp implements the signal-processing primitives HyperEar builds
// on: an iterative radix-4 FFT, FFT-based cross-correlation, windowed-sinc
// FIR filter design, moving-average smoothing, a Hamming window, sub-sample
// peak interpolation, and level utilities. Everything is written against
// the Go standard library only.
package dsp

import "math/bits"

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

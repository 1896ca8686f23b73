package dsp

import "math"

// CrossCorrelate computes the valid-and-partial linear cross-correlation
// r[k] = Σ_n x[n+k]·ref[n] for lags k in [0, len(x)-1], using FFT
// convolution. It is the matched-filter operation HyperEar's detector runs
// on each recorded channel: a peak at lag k means a copy of ref starts at
// sample k of x.
//
// Lags where ref extends past the end of x use the available overlap only
// (zero padding), matching the behavior of a streaming correlator.
//
// No production path calls it: detection runs the segmented band kernel
// (Correlator.MatchedEnvelopeCtx) and the Doppler figure CrossCorrelateInto.
// It is the whole-signal reference that tests here and in internal/chirp
// and internal/core (the detector oracles, the pre-band-kernel detector
// replay) compare the shipping kernels against.
func CrossCorrelate(x, ref []float64) []float64 {
	if len(x) == 0 || len(ref) == 0 {
		return nil
	}
	return CrossCorrelateInto(make([]float64, len(x)), x, ref)
}

// Envelope returns the magnitude of the analytic signal of x (Hilbert
// envelope), sqrt(x² + H(x)²) with the Hilbert transform H(x) computed
// by rotating the positive-frequency half spectrum by -90°. Matched-filter
// outputs for band-pass signals oscillate at the carrier frequency under a
// smooth envelope; peak-picking the envelope avoids locking onto the wrong
// carrier cycle — essential for near-ultrasonic chirps, whose carrier
// period (≈50 µs at 20 kHz) is far larger than the sub-sample timing
// budget.
//
// No production path calls it (the Doppler figure uses EnvelopeInto); it
// is the whole-signal envelope that the segmented kernel's tests here and
// the detector oracles in internal/chirp and internal/core compare against.
func Envelope(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	return EnvelopeInto(make([]float64, len(x)), x)
}

// CrossCorrelateDirect is the O(N·M) reference implementation of
// CrossCorrelate. No production path calls it: tests use it to validate
// the FFT paths (TestCrossCorrelateMatchesDirect and its random-length,
// exact-power-of-two and windowed variants).
func CrossCorrelateDirect(x, ref []float64) []float64 {
	if len(x) == 0 || len(ref) == 0 {
		return nil
	}
	out := make([]float64, len(x))
	for k := range out {
		var s float64
		for n := 0; n < len(ref) && k+n < len(x); n++ {
			s += x[k+n] * ref[n]
		}
		out[k] = s
	}
	return out
}

// ParabolicInterp fits a parabola through r[i-1], r[i], r[i+1] and returns
// the sub-sample offset of its vertex in (-0.5, 0.5) plus the interpolated
// peak value. At the slice edges it returns offset 0 and r[i].
//
// This is the standard sub-sample TDoA refinement: with 44.1 kHz sampling
// the raw resolution is 7.78 mm of path difference; parabolic interpolation
// recovers a large fraction of the information between samples (paper §III,
// "Interpolation").
//
//hyperearvet:zeroalloc
func ParabolicInterp(r []float64, i int) (offset, value float64) {
	if i <= 0 || i >= len(r)-1 {
		if i < 0 || i >= len(r) {
			return 0, 0
		}
		return 0, r[i]
	}
	a, b, c := r[i-1], r[i], r[i+1]
	den := a - 2*b + c
	if den == 0 {
		return 0, b
	}
	off := 0.5 * (a - c) / den
	if off > 0.5 {
		off = 0.5
	} else if off < -0.5 {
		off = -0.5
	}
	val := b - 0.25*(a-c)*off
	return off, val
}

// CubicInterpValue evaluates a Catmull-Rom cubic through four equally
// spaced samples y0..y3 at fractional position t in [0,1] between y1 and
// y2. Used for waveform resampling at non-integer offsets.
func CubicInterpValue(y0, y1, y2, y3, t float64) float64 {
	a := -0.5*y0 + 1.5*y1 - 1.5*y2 + 0.5*y3
	b := y0 - 2.5*y1 + 2*y2 - 0.5*y3
	c := -0.5*y0 + 0.5*y2
	return ((a*t+b)*t+c)*t + y1
}

// SampleAt returns the signal value at fractional sample position pos using
// Catmull-Rom interpolation, with clamped edge handling.
func SampleAt(x []float64, pos float64) float64 {
	if len(x) == 0 {
		return 0
	}
	i := int(math.Floor(pos))
	t := pos - float64(i)
	at := func(j int) float64 {
		if j < 0 {
			j = 0
		}
		if j >= len(x) {
			j = len(x) - 1
		}
		return x[j]
	}
	return CubicInterpValue(at(i-1), at(i), at(i+1), at(i+2), t)
}

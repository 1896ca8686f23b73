package dsp

import "math"

// Hamming returns an n-point Hamming window.
func Hamming(n int) []float64 {
	return cosineWindow(n, 0.54, 0.46)
}

// cosineWindow returns the n-point window a0 - a1·cos(2πi/(n-1)).
func cosineWindow(n int, a0, a1 float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = a0 - a1*math.Cos(x)
	}
	return w
}

// RMS returns the root-mean-square level of x (0 for empty input).
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// Goertzel evaluates the DFT magnitude of x at a single frequency freq for
// sampling rate fs. No production path calls it: it is the spectral probe
// shared by the tests of several packages (the FIR filters here, the chirp
// band limits in internal/chirp, the noise spectra in internal/room).
func Goertzel(x []float64, freq, fs float64) float64 {
	w := 2 * math.Pi * freq / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

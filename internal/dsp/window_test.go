package dsp

import (
	"math"
	"testing"
)

// Hann returns an n-point Hann window: the taper of the test chirps in
// segment_test.go.
func Hann(n int) []float64 {
	return cosineWindow(n, 0.5, 0.5)
}

func TestWindowsEndpointsAndSymmetry(t *testing.T) {
	for name, fn := range map[string]func(int) []float64{
		"hann": Hann, "hamming": Hamming,
	} {
		w := fn(64)
		if len(w) != 64 {
			t.Errorf("%s: length %d", name, len(w))
		}
		for i := 0; i < len(w)/2; i++ {
			if math.Abs(w[i]-w[len(w)-1-i]) > 1e-12 {
				t.Errorf("%s: asymmetric at %d", name, i)
			}
		}
		// Mid value must be the window's maximum region.
		if w[32] < w[0] {
			t.Errorf("%s: not peaked at center", name)
		}
	}
	if got := Hann(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("Hann(1) = %v, want [1]", got)
	}
}

func TestHannZeroEndpoints(t *testing.T) {
	w := Hann(33)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[32]) > 1e-12 {
		t.Errorf("Hann endpoints = %v, %v, want 0", w[0], w[32])
	}
	if math.Abs(w[16]-1) > 1e-12 {
		t.Errorf("Hann center = %v, want 1", w[16])
	}
}

func TestRMSAndEnergy(t *testing.T) {
	x := []float64{3, -4}
	if got := RMS(x); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", got)
	}
	if got := RMS(nil); got != 0 {
		t.Errorf("RMS(nil) = %v, want 0", got)
	}
}

func TestGoertzelMatchesSpectrum(t *testing.T) {
	fs := 8000.0
	n := 800
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / fs)
	}
	at440 := Goertzel(x, 440, fs)
	at2000 := Goertzel(x, 2000, fs)
	if at440 < 100*at2000 {
		t.Errorf("Goertzel should isolate 440 Hz: %v vs %v", at440, at2000)
	}
}

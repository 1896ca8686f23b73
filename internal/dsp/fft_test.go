package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	x := make([]complex128, 6)
	if err := FFT(x); err == nil {
		t.Error("FFT should reject length 6")
	}
	if err := IFFT(x); err == nil {
		t.Error("IFFT should reject length 6")
	}
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of an impulse is flat.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse DFT bin %d = %v, want 1", i, v)
		}
	}
	// DFT of a single cosine cycle concentrates in bins 1 and N-1.
	n := 16
	y := make([]complex128, n)
	for i := range y {
		y[i] = complex(math.Cos(2*math.Pi*float64(i)/float64(n)), 0)
	}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		want := 0.0
		if i == 1 || i == n-1 {
			want = float64(n) / 2
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("cosine DFT bin %d = %v, want |.|=%v", i, v, want)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 256, 4096} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		if err := IFFT(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

// TestFFTLinearityProperty: FFT(a·x + b·y) = a·FFT(x) + b·FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(aRaw, bRaw float64) bool {
		a := math.Mod(aRaw, 10)
		b := math.Mod(bRaw, 10)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		n := 64
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			y[i] = complex(rng.NormFloat64(), 0)
			mix[i] = complex(a, 0)*x[i] + complex(b, 0)*y[i]
		}
		if err := FFT(x); err != nil {
			return false
		}
		if err := FFT(y); err != nil {
			return false
		}
		if err := FFT(mix); err != nil {
			return false
		}
		for i := range mix {
			want := complex(a, 0)*x[i] + complex(b, 0)*y[i]
			if cmplx.Abs(mix[i]-want) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFFTRealAndSpectrum(t *testing.T) {
	fs := 1000.0
	n := 1000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 100 * float64(i) / fs)
	}
	freq, mag := Spectrum(x, fs)
	// Find the dominant bin: should be near 100 Hz.
	best := 0
	for i := range mag {
		if mag[i] > mag[best] {
			best = i
		}
	}
	if math.Abs(freq[best]-100) > fs/float64(len(x)) {
		t.Errorf("spectral peak at %v Hz, want ≈100", freq[best])
	}
}

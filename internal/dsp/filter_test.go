package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLowPassResponse(t *testing.T) {
	fs := 44100.0
	lp, err := NewLowPass(2000, fs, 201)
	if err != nil {
		t.Fatal(err)
	}
	if g := lp.Response(0, fs); math.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain = %v, want 1", g)
	}
	if g := lp.Response(500, fs); g < 0.95 {
		t.Errorf("passband gain @500 Hz = %v, want ≈1", g)
	}
	if g := lp.Response(8000, fs); g > 0.01 {
		t.Errorf("stopband gain @8 kHz = %v, want ≈0", g)
	}
}

func TestLowPassValidation(t *testing.T) {
	if _, err := NewLowPass(0, 44100, 101); err == nil {
		t.Error("cutoff 0 should error")
	}
	if _, err := NewLowPass(30000, 44100, 101); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
	if _, err := NewLowPass(1000, 44100, 1); err == nil {
		t.Error("too few taps should error")
	}
	// Even tap counts are rounded up to odd.
	f, err := NewLowPass(1000, 44100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len()%2 == 0 {
		t.Errorf("tap count %d should be odd", f.Len())
	}
}

func TestBandPassChirpBand(t *testing.T) {
	// The ASP band-pass: 2-6.4 kHz at 44.1 kHz.
	fs := 44100.0
	bp, err := NewBandPass(2000, 6400, fs, 301)
	if err != nil {
		t.Fatal(err)
	}
	if g := bp.Response(4000, fs); g < 0.95 {
		t.Errorf("mid-band gain @4 kHz = %v, want ≈1", g)
	}
	if g := bp.Response(500, fs); g > 0.02 {
		t.Errorf("voice-band gain @500 Hz = %v, want ≈0 (voice rejection)", g)
	}
	if g := bp.Response(12000, fs); g > 0.02 {
		t.Errorf("gain @12 kHz = %v, want ≈0", g)
	}
}

func TestBandPassValidation(t *testing.T) {
	if _, err := NewBandPass(5000, 2000, 44100, 101); err == nil {
		t.Error("lo >= hi should error")
	}
	if _, err := NewBandPass(-1, 2000, 44100, 101); err == nil {
		t.Error("negative lo should error")
	}
}

func TestApplyRemovesOutOfBandTone(t *testing.T) {
	fs := 44100.0
	bp, err := NewBandPass(2000, 6400, fs, 301)
	if err != nil {
		t.Fatal(err)
	}
	n := 8000
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*4000*ti) + math.Sin(2*math.Pi*300*ti)
	}
	y := bp.Apply(x)
	if len(y) != len(x) {
		t.Fatalf("output length %d, want %d", len(y), len(x))
	}
	// Probe the filtered signal (ignore edge transients).
	core := y[1000 : n-1000]
	inBand := Goertzel(core, 4000, fs)
	outBand := Goertzel(core, 300, fs)
	if outBand > 0.02*inBand {
		t.Errorf("300 Hz leakage: in-band %v, out-band %v", inBand, outBand)
	}
}

func TestApplyTimeAlignment(t *testing.T) {
	// The filtered output must stay time-aligned with the input: an
	// in-band burst at sample k must peak near k after filtering.
	fs := 44100.0
	bp, err := NewBandPass(2000, 6400, fs, 201)
	if err != nil {
		t.Fatal(err)
	}
	n := 4096
	x := make([]float64, n)
	k := 2000
	for i := 0; i < 200; i++ {
		x[k+i] = math.Sin(2 * math.Pi * 4000 * float64(i) / fs)
	}
	y := bp.Apply(x)
	// Envelope peak of |y| should fall inside the burst.
	best := 0
	for i := range y {
		if math.Abs(y[i]) > math.Abs(y[best]) {
			best = i
		}
	}
	if best < k-50 || best > k+250 {
		t.Errorf("filtered peak at %d, want within burst [%d,%d]", best, k, k+200)
	}
}

func TestApplyFFTPathMatchesDirect(t *testing.T) {
	fs := 44100.0
	bp, err := NewBandPass(2000, 6400, fs, 31)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	direct := directConvolve(x, bp.taps)
	viaFFT := fftConvolve(x, bp.taps)
	for i := range direct {
		if math.Abs(direct[i]-viaFFT[i]) > 1e-9 {
			t.Fatalf("convolve mismatch at %d: %v vs %v", i, direct[i], viaFFT[i])
		}
	}
}

func TestApplyEmpty(t *testing.T) {
	bp, err := NewBandPass(2000, 6400, 44100, 31)
	if err != nil {
		t.Fatal(err)
	}
	if got := bp.Apply(nil); got != nil {
		t.Error("Apply(nil) should be nil")
	}
}

func TestTapsReturnsCopy(t *testing.T) {
	lp, err := NewLowPass(1000, 44100, 11)
	if err != nil {
		t.Fatal(err)
	}
	taps := lp.Taps()
	taps[0] = 999
	if lp.Taps()[0] == 999 {
		t.Error("Taps() must return a copy")
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := MovingAverageInto(nil, x, 3)
	// Prefix averages the available samples.
	want := []float64{1, 1.5, 2, 3, 4, 5}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Errorf("MA[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	// n<1 behaves as identity.
	y1 := MovingAverageInto(nil, x, 0)
	for i := range x {
		if y1[i] != x[i] {
			t.Errorf("MA(n=0)[%d] = %v, want %v", i, y1[i], x[i])
		}
	}
}

func TestMovingAverageSmoothsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 10000
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := MovingAverageInto(nil, x, 4)
	if ry, rx := RMS(y[4:]), RMS(x[4:]); ry > 0.7*rx {
		t.Errorf("4-sample SMA should reduce white-noise RMS by ≈2x: %v vs %v", ry, rx)
	}
}

// TestMovingAverageInto checks that a warm destination is reused and
// refilled with the same samples a fresh one gets.
func TestMovingAverageInto(t *testing.T) {
	x := make([]float64, 257)
	for i := range x {
		fi := float64(i)
		x[i] = math.Sin(fi*0.137+3) + 0.25*math.Cos(fi*2.193+1)
	}
	want := MovingAverageInto(nil, x, 4)
	dst := make([]float64, len(x)+3)
	for i := range dst {
		dst[i] = math.NaN()
	}
	p := &dst[0]
	dst = MovingAverageInto(dst, x, 4)
	if &dst[0] != p {
		t.Fatal("MovingAverageInto reallocated a warm destination")
	}
	if len(dst) != len(want) {
		t.Fatalf("length %d, want %d", len(dst), len(want))
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d: %v != %v", i, dst[i], want[i])
		}
	}
}

// Response returns the filter's magnitude response at frequency freq Hz for
// sampling rate fs, evaluated exactly from the tap coefficients.
func (f *FIR) Response(freq, fs float64) float64 {
	w := 2 * math.Pi * freq / fs
	var re, im float64
	for i, t := range f.taps {
		re += t * math.Cos(w*float64(i))
		im -= t * math.Sin(w*float64(i))
	}
	return math.Hypot(re, im)
}

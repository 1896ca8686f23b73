package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestEnvelopeOfTone(t *testing.T) {
	// The Hilbert envelope of a unit sine is ≈1 everywhere away from the
	// edges.
	fs := 8000.0
	n := 2048
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / fs)
	}
	env := Envelope(x)
	if len(env) != n {
		t.Fatalf("length %d, want %d", len(env), n)
	}
	for i := 200; i < n-200; i++ {
		if math.Abs(env[i]-1) > 0.02 {
			t.Fatalf("env[%d] = %v, want ≈1", i, env[i])
		}
	}
}

func TestEnvelopeOfModulatedTone(t *testing.T) {
	// AM tone: envelope must recover the modulation, not the carrier.
	fs := 8000.0
	n := 4096
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		am := 1 + 0.5*math.Sin(2*math.Pi*5*ti)
		x[i] = am * math.Sin(2*math.Pi*1000*ti)
	}
	env := Envelope(x)
	for i := 400; i < n-400; i++ {
		ti := float64(i) / fs
		want := 1 + 0.5*math.Sin(2*math.Pi*5*ti)
		if math.Abs(env[i]-want) > 0.05 {
			t.Fatalf("env[%d] = %v, want %v", i, env[i], want)
		}
	}
}

func TestEnvelopeUpperBoundsSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Band-limit so the analytic-signal assumption holds.
	bp, err := NewBandPass(1000, 3000, 8000, 101)
	if err != nil {
		t.Fatal(err)
	}
	y := bp.Apply(x)
	env := Envelope(y)
	for i := range y {
		if env[i] < math.Abs(y[i])-1e-6 {
			t.Fatalf("envelope below |signal| at %d: %v < %v", i, env[i], math.Abs(y[i]))
		}
	}
}

func TestEnvelopeEmpty(t *testing.T) {
	if got := Envelope(nil); got != nil {
		t.Errorf("Envelope(nil) = %v, want nil", got)
	}
}

func TestEnvelopePeakAtBurstCenter(t *testing.T) {
	// A windowed high-frequency burst: the envelope peak sits at the
	// window center even though raw samples oscillate.
	fs := 48000.0
	n := 4096
	x := make([]float64, n)
	center := 2000
	width := 300
	for i := center - width; i < center+width; i++ {
		ti := float64(i) / fs
		w := 0.5 * (1 + math.Cos(math.Pi*float64(i-center)/float64(width)))
		x[i] = w * math.Sin(2*math.Pi*20000*ti)
	}
	env := Envelope(x)
	best := 0
	for i := range env {
		if env[i] > env[best] {
			best = i
		}
	}
	if best < center-10 || best > center+10 {
		t.Errorf("envelope peak at %d, want ≈%d", best, center)
	}
}

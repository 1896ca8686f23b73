package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCrossCorrelateMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 300)
	ref := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	fftR := CrossCorrelate(x, ref)
	dirR := CrossCorrelateDirect(x, ref)
	if len(fftR) != len(dirR) {
		t.Fatalf("length mismatch %d vs %d", len(fftR), len(dirR))
	}
	for i := range fftR {
		if math.Abs(fftR[i]-dirR[i]) > 1e-9 {
			t.Fatalf("mismatch at %d: %v vs %v", i, fftR[i], dirR[i])
		}
	}
}

func TestCrossCorrelateEmpty(t *testing.T) {
	if got := CrossCorrelate(nil, []float64{1}); got != nil {
		t.Error("expected nil for empty x")
	}
	if got := CrossCorrelate([]float64{1}, nil); got != nil {
		t.Error("expected nil for empty ref")
	}
}

// TestCorrelationShiftProperty: embedding ref at offset k in noise-free
// zeros yields a correlation maximum exactly at k.
func TestCorrelationShiftProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := make([]float64, 32)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	f := func(kRaw uint16) bool {
		k := int(kRaw) % 400
		x := make([]float64, 512)
		copy(x[k:], ref)
		r := CrossCorrelate(x, ref)
		best := 0
		for i := range r {
			if r[i] > r[best] {
				best = i
			}
		}
		return best == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParabolicInterpExactVertex(t *testing.T) {
	// Sample a parabola with vertex at x = 10.3 and verify recovery.
	vertex := 10.3
	r := make([]float64, 21)
	for i := range r {
		d := float64(i) - vertex
		r[i] = 5 - d*d
	}
	off, val := ParabolicInterp(r, 10)
	if math.Abs(off-0.3) > 1e-9 {
		t.Errorf("offset = %v, want 0.3", off)
	}
	if math.Abs(val-5) > 1e-9 {
		t.Errorf("value = %v, want 5", val)
	}
}

func TestParabolicInterpEdges(t *testing.T) {
	r := []float64{3, 2, 1}
	if off, val := ParabolicInterp(r, 0); off != 0 || val != 3 {
		t.Errorf("edge interp = (%v,%v), want (0,3)", off, val)
	}
	if off, val := ParabolicInterp(r, -1); off != 0 || val != 0 {
		t.Errorf("out-of-range interp = (%v,%v), want (0,0)", off, val)
	}
	// Flat triple (den = 0) must not divide by zero.
	if off, val := ParabolicInterp([]float64{1, 1, 1}, 1); off != 0 || val != 1 {
		t.Errorf("flat interp = (%v,%v), want (0,1)", off, val)
	}
}

// TestParabolicInterpSubSampleProperty: for random parabola vertices within
// (-0.5, 0.5) of an integer peak, the recovered offset matches.
func TestParabolicInterpSubSampleProperty(t *testing.T) {
	f := func(raw float64) bool {
		frac := math.Mod(math.Abs(raw), 0.98) - 0.49
		if math.IsNaN(frac) {
			return true
		}
		r := make([]float64, 9)
		for i := range r {
			d := float64(i) - (4 + frac)
			r[i] = 2 - d*d
		}
		off, _ := ParabolicInterp(r, 4)
		return math.Abs(off-frac) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleAt(t *testing.T) {
	// A line is reproduced exactly by Catmull-Rom interpolation.
	x := make([]float64, 20)
	for i := range x {
		x[i] = 2*float64(i) + 1
	}
	for _, pos := range []float64{3, 3.25, 3.5, 10.9, 17.0} {
		want := 2*pos + 1
		if got := SampleAt(x, pos); math.Abs(got-want) > 1e-9 {
			t.Errorf("SampleAt(%v) = %v, want %v", pos, got, want)
		}
	}
	if got := SampleAt(nil, 1); got != 0 {
		t.Errorf("SampleAt(nil) = %v, want 0", got)
	}
}

func TestCubicInterpValueEndpoints(t *testing.T) {
	if got := CubicInterpValue(0, 1, 2, 3, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("t=0: %v, want 1", got)
	}
	if got := CubicInterpValue(0, 1, 2, 3, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("t=1: %v, want 2", got)
	}
}

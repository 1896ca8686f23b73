package chirp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyperear/internal/dsp"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero low", func(p *Params) { p.Low = 0 }},
		{"high below low", func(p *Params) { p.High = p.Low - 1 }},
		{"zero duration", func(p *Params) { p.Duration = 0 }},
		{"period < duration", func(p *Params) { p.Period = p.Duration / 2 }},
		{"zero amplitude", func(p *Params) { p.Amplitude = 0 }},
	}
	for _, c := range cases {
		p := Default()
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEvalSilenceOutsideChirp(t *testing.T) {
	p := Default()
	if got := p.Eval(-0.1); got != 0 {
		t.Errorf("Eval(-0.1) = %v, want 0", got)
	}
	// Between chirps: duration 40 ms, period 200 ms.
	if got := p.Eval(0.1); got != 0 {
		t.Errorf("Eval(0.1) = %v, want 0 (inter-chirp silence)", got)
	}
	// Second beacon is active at 0.21 s.
	if got := p.Eval(0.21); got == 0 {
		t.Errorf("Eval(0.21) = 0, want nonzero (second beacon)")
	}
}

func TestEvalPeriodicProperty(t *testing.T) {
	p := Default()
	f := func(raw float64) bool {
		t0 := math.Mod(math.Abs(raw), p.Period)
		if math.IsNaN(t0) {
			return true
		}
		a := p.Eval(t0)
		b := p.Eval(t0 + 3*p.Period)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalBounded(t *testing.T) {
	p := Default()
	for i := 0; i < 5000; i++ {
		v := p.Eval(float64(i) * 1e-5)
		if math.Abs(v) > p.Amplitude+1e-12 {
			t.Fatalf("Eval exceeded amplitude at %v: %v", float64(i)*1e-5, v)
		}
	}
}

func TestInstantFrequency(t *testing.T) {
	p := Default()
	if got := p.InstantFrequency(0); math.Abs(got-p.Low) > 1e-9 {
		t.Errorf("f(0) = %v, want %v", got, p.Low)
	}
	if got := p.InstantFrequency(p.Duration / 2); math.Abs(got-p.High) > 1e-9 {
		t.Errorf("f(half) = %v, want %v", got, p.High)
	}
	if got := p.InstantFrequency(p.Duration); math.Abs(got-p.Low) > 1e-9 {
		t.Errorf("f(end) = %v, want %v", got, p.Low)
	}
	if got := p.InstantFrequency(p.Duration + 0.01); got != 0 {
		t.Errorf("f outside = %v, want 0", got)
	}
}

// TestWithinMatchesMod pins Params.Within to math.Mod bit for bit, on
// random times and on exact period multiples and their float neighbours
// (where the division's rounded quotient needs the one-step fix-up).
func TestWithinMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, period := range []float64{0.2, 0.25, 1.0 / 3} {
		p := Default()
		p.Period = period
		check := func(v float64) {
			if got, want := p.Within(v), math.Mod(v, period); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("period %v: Within(%v) = %v, math.Mod %v", period, v, got, want)
			}
		}
		for i := 0; i < 100000; i++ {
			check(rng.Float64() * 600)
			m := float64(rng.Intn(3000)) * period
			check(m)
			check(math.Nextafter(m, math.Inf(1)))
			if m > 0 {
				check(math.Nextafter(m, 0))
			}
		}
	}
}

func TestReferenceLengthAndEnergy(t *testing.T) {
	p := Default()
	fs := 44100.0
	ref := p.Reference(fs)
	want := int(math.Round(p.Duration * fs))
	if len(ref) != want {
		t.Errorf("reference length %d, want %d", len(ref), want)
	}
	if dsp.RMS(ref) < 0.5 {
		t.Errorf("reference RMS %v suspiciously low", dsp.RMS(ref))
	}
}

// TestAutocorrelationSharpness verifies the chirp's key property: its
// autocorrelation has a dominant narrow main lobe, so matched filtering
// yields precise timestamps.
func TestAutocorrelationSharpness(t *testing.T) {
	p := Default()
	fs := 44100.0
	ref := p.Reference(fs)
	// Embed the chirp in a longer buffer and correlate with itself.
	x := make([]float64, 8192)
	copy(x[1000:], ref)
	r := dsp.CrossCorrelate(x, ref)
	best := 0
	for i := range r {
		if r[i] > r[best] {
			best = i
		}
	}
	if best != 1000 {
		t.Fatalf("autocorrelation peak at %d, want 1000", best)
	}
	// Peak-to-sidelobe ratio: the interpolated peak against the largest
	// correlation more than 30 lags away from it.
	_, peak := dsp.ParabolicInterp(r, best)
	var sidelobe float64
	for i, v := range r {
		if i < best-30 || i > best+30 {
			sidelobe = math.Max(sidelobe, math.Abs(v))
		}
	}
	if psr := math.Abs(peak) / sidelobe; psr < 3 {
		t.Errorf("peak-to-sidelobe ratio %v, want > 3", psr)
	}
}

// TestChirpBandLimits checks the sampled chirp's energy is concentrated in
// [Low, High]: the premise of the ASP voice rejection.
func TestChirpBandLimits(t *testing.T) {
	p := Default()
	fs := 44100.0
	ref := p.Reference(fs)
	inBand := dsp.Goertzel(ref, 4000, fs)
	voice := dsp.Goertzel(ref, 500, fs)
	if voice > 0.05*inBand {
		t.Errorf("chirp leaks into voice band: %v vs %v", voice, inBand)
	}
}

func TestPhaseContinuityAtApex(t *testing.T) {
	// The waveform must not jump where the sweep reverses.
	p := Default()
	half := p.Duration / 2
	d := 1e-7
	before := p.evalOne(half - d)
	after := p.evalOne(half + d)
	if math.Abs(before-after) > 0.02 {
		t.Errorf("discontinuity at apex: %v vs %v", before, after)
	}
}

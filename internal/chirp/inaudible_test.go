package chirp

import (
	"math"
	"math/rand"
	"testing"

	"hyperear/internal/dsp"
)

func TestInaudibleValidates(t *testing.T) {
	p := Inaudible()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Low < 18000 {
		t.Errorf("inaudible band starts at %v Hz, want ≥18 kHz", p.Low)
	}
}

func TestInaudibleNeedsHiResRate(t *testing.T) {
	// 44.1 kHz cannot capture a 21.5 kHz chirp (Nyquist margin).
	if _, err := NewDetector(Inaudible(), 44100); err == nil {
		t.Error("44.1 kHz should be rejected for the inaudible beacon")
	}
	if _, err := NewDetector(Inaudible(), 48000); err != nil {
		t.Errorf("48 kHz should work: %v", err)
	}
}

// TestInaudibleDetectionTimingUnbiased exercises the detector's
// narrowband-relative regime: at fc/B ≈ 5.6 the raw correlation has many
// near-equal carrier peaks, and timing must come from the envelope. Sweep
// sub-sample delays and verify no carrier-cycle bias appears.
func TestInaudibleDetectionTimingUnbiased(t *testing.T) {
	p := Inaudible()
	fs := 48000.0
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.21, 0.37, 0.5, 0.68, 0.93} {
		delay := 0.0125 + frac/fs
		n := 1 << 15
		x := make([]float64, n)
		for i := range x {
			x[i] = p.Eval(float64(i)/fs - delay)
		}
		dets := d.Detect(x)
		if len(dets) == 0 {
			t.Fatalf("frac %v: no detections", frac)
		}
		if got := math.Abs(dets[0].Time - delay); got > 12e-6 {
			t.Errorf("frac %v: timing error %.1f µs (carrier period is 50 µs — cycle slip?)",
				frac, got*1e6)
		}
	}
}

// TestAudibleDetectionUsesCarrierPrecision: the audible chirp (fc/B ≈ 1)
// goes through the wideband path and must retain ≈µs timing.
func TestAudibleDetectionUsesCarrierPrecision(t *testing.T) {
	p := Default()
	fs := 44100.0
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, frac := range []float64{0.1, 0.45, 0.8} {
		delay := 0.0137 + frac/fs
		n := 1 << 15
		x := make([]float64, n)
		for i := range x {
			x[i] = p.Eval(float64(i)/fs-delay) + 0.05*rng.NormFloat64()
		}
		dets := d.Detect(x)
		if len(dets) == 0 {
			t.Fatalf("frac %v: no detections", frac)
		}
		if got := math.Abs(dets[0].Time - delay); got > 6e-6 {
			t.Errorf("frac %v: timing error %.2f µs, want < 6 µs", frac, got*1e6)
		}
	}
}

func TestReferenceShaped(t *testing.T) {
	p := Default()
	fs := 44100.0
	flat := p.Reference(fs)
	// A gain that halves everything must halve the template.
	shaped := p.ReferenceShaped(fs, func(float64) float64 { return 0.5 })
	if len(shaped) != len(flat) {
		t.Fatalf("length mismatch %d vs %d", len(shaped), len(flat))
	}
	for i := range flat {
		if math.Abs(shaped[i]-0.5*flat[i]) > 1e-12 {
			t.Fatalf("shaped[%d] = %v, want %v", i, shaped[i], 0.5*flat[i])
		}
	}
	// A frequency-selective gain changes the template's spectral balance:
	// attenuate above 4 kHz and check the early (low-frequency) samples
	// keep more amplitude than the mid (high-frequency) ones relative to
	// the flat template.
	hf := p.ReferenceShaped(fs, func(f float64) float64 {
		if f > 4000 {
			return 0.1
		}
		return 1
	})
	mid := len(hf) / 2 // apex = High frequency
	if math.Abs(hf[mid]) > 0.2*math.Abs(flat[mid])+1e-9 {
		t.Errorf("apex sample should be attenuated: %v vs flat %v", hf[mid], flat[mid])
	}
}

// TestHilbertTruncationWithinOracle bounds the full-rate envelope the
// narrowband rule times from — the exact correlation plus the quadrature
// against the template's truncated Hilbert transform — against the exact
// analytic envelope at every lag of a 4 s noisy recording, for the flat
// and band-pass-folded templates of both beacons. The truncation margin
// keeps the Hilbert tail down to 1e-7 of the template's peak; each bound
// is the matching block family's bound in TestMatchedFilterEnvelopeOracle
// (flat 3e-5, folded 1.1e-8), and the measured errors sit well below
// them (logged).
func TestHilbertTruncationWithinOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      Params
		fs     float64
		folded bool
		bound  float64
	}{
		{"flat-audible", Default(), 44100, false, 3e-5},
		{"folded-audible", Default(), 44100, true, 1.1e-8},
		{"flat-inaudible", Inaudible(), 48000, false, 3e-5},
		{"folded-inaudible", Inaudible(), 48000, true, 1.1e-8},
	} {
		d, err := NewDetector(tc.p, tc.fs)
		if err != nil {
			t.Fatal(err)
		}
		if tc.folded {
			bp, err := dsp.NewBandPass(tc.p.Low-200, math.Min(tc.p.High+200, tc.fs/2-1), tc.fs, 301)
			if err != nil {
				t.Fatal(err)
			}
			if d, err = NewDetectorFiltered(tc.p, tc.fs, nil, bp.Taps()); err != nil {
				t.Fatal(err)
			}
		}
		x := synth(tc.p, tc.fs, 4*int(tc.fs), 0.0173, 0.3, 52)
		lead := len(d.ref) - 1
		padded := make([]float64, lead+len(x)+1<<16)
		copy(padded[lead:], x)
		exact := dsp.Envelope(dsp.CrossCorrelate(padded, d.ref))[lead : lead+len(x)]
		r := make([]float64, len(x))
		q := make([]float64, len(x))
		d.corr.CorrelateWindow(r, x, 0)
		d.corr.QuadratureWindow(q, x, 0)
		peak, worst := 0.0, 0.0
		for i, e := range exact {
			peak = math.Max(peak, e)
			worst = math.Max(worst, math.Abs(math.Sqrt(r[i]*r[i]+q[i]*q[i])-e))
		}
		t.Logf("%s: full-rate envelope error %.2e of the peak", tc.name, worst/peak)
		if worst > tc.bound*peak {
			t.Errorf("%s: full-rate envelope deviates %.2e of the peak from the exact analytic envelope (bound %.1e)",
				tc.name, worst/peak, tc.bound)
		}
	}
}

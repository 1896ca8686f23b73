package chirp

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hyperear/internal/dsp"
)

// synth renders beacons into a buffer of n samples at fs, with the first
// beacon arriving at delay seconds, plus white noise of the given RMS.
func synth(p Params, fs float64, n int, delay, noiseRMS float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		t := float64(i)/fs - delay
		x[i] = p.Eval(t) + noiseRMS*rng.NormFloat64()
	}
	return x
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(Params{}, 44100); err == nil {
		t.Error("invalid params should error")
	}
	p := Default()
	if _, err := NewDetector(p, 10000); err == nil {
		t.Error("sub-Nyquist fs should error")
	}
	if _, err := NewDetector(p, 44100); err != nil {
		t.Errorf("valid config: %v", err)
	}
}

func TestDetectCleanBeacons(t *testing.T) {
	p := Default()
	fs := 44100.0
	delay := 0.0137
	x := synth(p, fs, int(fs), delay, 0, 1) // 1 s: beacons at delay + k·0.2
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	dets := d.Detect(x)
	if len(dets) != 5 {
		t.Fatalf("detected %d beacons, want 5", len(dets))
	}
	for k, det := range dets {
		want := delay + float64(k)*p.Period
		if math.Abs(det.Time-want) > 0.0002 {
			t.Errorf("beacon %d at %v s, want %v", k, det.Time, want)
		}
	}
}

func TestDetectSubSampleAccuracy(t *testing.T) {
	// With no noise the interpolated arrival should be accurate well below
	// one sample period (22.7 µs).
	p := Default()
	fs := 44100.0
	delay := 0.0100003 // deliberately off-grid
	x := synth(p, fs, 1<<15, delay, 0, 2)
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	dets := d.Detect(x)
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	if got := math.Abs(dets[0].Time - delay); got > 10e-6 {
		t.Errorf("sub-sample error %v s, want < 10 µs", got)
	}
}

func TestDetectUnderNoise(t *testing.T) {
	p := Default()
	fs := 44100.0
	delay := 0.02
	// Strong noise: RMS comparable to chirp amplitude.
	x := synth(p, fs, int(fs), delay, 0.7, 3)
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	dets := d.Detect(x)
	if len(dets) != 5 {
		t.Fatalf("detected %d beacons under noise, want 5", len(dets))
	}
	for k, det := range dets {
		want := delay + float64(k)*p.Period
		if math.Abs(det.Time-want) > 0.001 {
			t.Errorf("beacon %d at %v s, want ≈%v", k, det.Time, want)
		}
	}
}

func TestDetectPureNoiseRejects(t *testing.T) {
	p := Default()
	fs := 44100.0
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, int(fs))
	for i := range x {
		x[i] = 0.5 * rng.NormFloat64()
	}
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	if dets := d.Detect(x); len(dets) != 0 {
		t.Errorf("pure noise produced %d detections, want 0", len(dets))
	}
}

func TestDetectShortInput(t *testing.T) {
	p := Default()
	d, err := NewDetector(p, 44100)
	if err != nil {
		t.Fatal(err)
	}
	if dets := d.Detect(make([]float64, 10)); dets != nil {
		t.Errorf("short input should return nil, got %v", dets)
	}
}

func TestDetectMinSeparation(t *testing.T) {
	// Detections must be spaced by at least MinSeparation even when
	// correlation sidelobes are strong.
	p := Default()
	fs := 44100.0
	x := synth(p, fs, int(fs), 0.01, 0.1, 5)
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	dets := d.Detect(x)
	for i := 1; i < len(dets); i++ {
		if dt := dets[i].Time - dets[i-1].Time; dt < d.MinSeparation {
			t.Errorf("detections %d,%d only %v s apart (min %v)", i-1, i, dt, d.MinSeparation)
		}
	}
}

func TestPairBeacons(t *testing.T) {
	a := []Detection{{Time: 0.100}, {Time: 0.300}, {Time: 0.500}}
	b := []Detection{{Time: 0.1002}, {Time: 0.2999}, {Time: 0.9}}
	pairs := PairBeacons(a, b, 0.002)
	if len(pairs) != 2 {
		t.Fatalf("paired %d, want 2", len(pairs))
	}
	if pairs[0][0].Time != 0.100 || pairs[0][1].Time != 0.1002 {
		t.Errorf("pair 0 mismatch: %v", pairs[0])
	}
	if pairs[1][0].Time != 0.300 || pairs[1][1].Time != 0.2999 {
		t.Errorf("pair 1 mismatch: %v", pairs[1])
	}
}

func TestPairBeaconsEmpty(t *testing.T) {
	if got := PairBeacons(nil, nil, 0.01); len(got) != 0 {
		t.Errorf("expected no pairs, got %v", got)
	}
}

func TestReferenceReturnsCopy(t *testing.T) {
	d, err := NewDetector(Default(), 44100)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Reference()
	r[0] = 42
	if d.Reference()[0] == 42 {
		t.Error("Reference must return a copy")
	}
}

// TestDetectIntoMatchesDetect: the scratch-reusing variant must return the
// same detections as Detect, across repeated calls on different inputs
// sharing one scratch.
func TestDetectIntoMatchesDetect(t *testing.T) {
	p := Default()
	fs := 44100.0
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	var scratch DetectScratch
	var dst []Detection
	for seed := int64(40); seed < 44; seed++ {
		x := synth(p, fs, int(fs), 0.011+0.003*float64(seed), 0.3, seed)
		want := d.Detect(x)
		dst = d.DetectInto(dst, x, &scratch)
		if len(dst) != len(want) {
			t.Fatalf("seed %d: DetectInto found %d, Detect %d", seed, len(dst), len(want))
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Errorf("seed %d detection %d: %+v vs %+v", seed, i, dst[i], want[i])
			}
		}
	}
	// Nil scratch degrades gracefully.
	x := synth(p, fs, int(fs), 0.02, 0.1, 50)
	got := d.DetectInto(nil, x, nil)
	want := d.Detect(x)
	if len(got) != len(want) {
		t.Fatalf("nil scratch: %d vs %d detections", len(got), len(want))
	}
	// Short input resets dst to empty.
	if got := d.DetectInto(dst, make([]float64, 5), &scratch); len(got) != 0 {
		t.Errorf("short input: len %d, want 0", len(got))
	}
}

// TestDetectIntoZeroAllocs pins the detection pass (matched filter,
// envelope, floor, NMS, timing) at zero steady-state heap allocations with
// warm scratch — the acceptance criterion for the streaming hot path.
func TestDetectIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p := Default()
	fs := 44100.0
	x := synth(p, fs, int(fs), 0.02, 0.3, 6)
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	var scratch DetectScratch
	dst := d.DetectInto(nil, x, &scratch)
	if len(dst) == 0 {
		t.Fatal("no detections in warm-up pass")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		dst = d.DetectInto(dst, x, &scratch)
	}); allocs > 0.5 {
		t.Errorf("DetectInto: %.2f allocs/run, want 0 in steady state", allocs)
	}
}

func BenchmarkDetectOneSecond(b *testing.B) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, int(fs), 0.02, 0.3, 6)
	d, err := NewDetector(p, fs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Detect(x)
	}
}

// BenchmarkDetectIntoOneSecond is BenchmarkDetectOneSecond on the
// scratch-reusing path: same work, no per-call buffer churn.
func BenchmarkDetectIntoOneSecond(b *testing.B) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, int(fs), 0.02, 0.3, 6)
	d, err := NewDetector(p, fs)
	if err != nil {
		b.Fatal(err)
	}
	var scratch DetectScratch
	dst := d.DetectInto(nil, x, &scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.DetectInto(dst, x, &scratch)
	}
}

// TestDetectorFilteredMatchesFilterThenDetect proves the prefiltered-
// template identity: for a linear-phase band-pass h, detecting on the
// raw recording with template ref⊛h must produce the same beacons, at
// the same timestamps, as band-pass filtering the recording and
// detecting with the plain template (the pipeline's previous shape).
func TestDetectorFilteredMatchesFilterThenDetect(t *testing.T) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, int(fs), 0.0137, 0.3, 7)

	bp, err := dsp.NewBandPass(p.Low-200, p.High+200, fs, 301)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := NewDetectorFiltered(p, fs, nil, bp.Taps())
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Detect(bp.Apply(x))
	got := pre.Detect(x)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("prefiltered found %d beacons, filter-then-detect found %d", len(got), len(want))
	}
	for i := range want {
		// The identity is exact in exact arithmetic; FFT rounding at the
		// two paths' different transform sizes leaves sub-microsecond
		// (≪ one sample) discrepancies.
		if d := math.Abs(got[i].Time - want[i].Time); d > 2e-6 {
			t.Errorf("beacon %d: prefiltered t=%v, filtered t=%v (Δ %.3g s)", i, got[i].Time, want[i].Time, d)
		}
		if want[i].SNR > 0 {
			if r := got[i].SNR / want[i].SNR; r < 0.9 || r > 1.1 {
				t.Errorf("beacon %d: SNR ratio %v", i, r)
			}
		}
	}
}

// TestDetectorFilteredRejectsAsymmetricTaps pins the linear-phase
// requirement: an asymmetric prefilter would need a frequency-dependent
// delay correction the detector does not implement.
func TestDetectorFilteredRejectsAsymmetricTaps(t *testing.T) {
	if _, err := NewDetectorFiltered(Default(), 44100, nil, []float64{1, 0.5, 0.25}); err == nil {
		t.Fatal("asymmetric taps accepted")
	}
	if _, err := NewDetectorFiltered(Default(), 44100, nil, nil); err != nil {
		t.Fatalf("nil taps (no prefilter): %v", err)
	}
}

// detectMonolithic is the pre-segmentation detection pass: one
// session-length FFT correlation and one monolithic envelope of it,
// sampled on the band kernel's D-lag grid and fed to the shared
// threshold/NMS/timing stage.
func detectMonolithic(d *Detector, x []float64) []Detection {
	env := dsp.EnvelopeInto(nil, d.corr.CrossCorrelateInto(nil, x))
	return d.detectCore(nil, dsp.FloatSamples(x, 0), onGrid(env, d.corr.Decimation()), 0, 0, len(x), &DetectScratch{})
}

// onGrid samples a full-rate sequence at every dec-th lag.
func onGrid(full []float64, dec int) []float64 {
	out := make([]float64, (len(full)+dec-1)/dec)
	for m := range out {
		out[m] = full[m*dec]
	}
	return out
}

// TestDetectSegmentedMatchesMonolithic is the chirp-level differential
// check for the overlap-save refactor: DetectIntoCtx (segmented matched
// filter with the per-block quadrature envelope) must report the same
// beacons as the monolithic pass (detectMonolithic).
// Indices and interpolated times come from the raw correlation, which the
// segmented kernel reproduces to ~1e-12, so they must match (nearly)
// exactly; strength and SNR pass through the envelope, where the two
// paths differ only at block seams and recording edges
// (TestMatchedFilterEnvelopeOracle bounds the segmented side).
func TestDetectSegmentedMatchesMonolithic(t *testing.T) {
	p := Default()
	fs := 44100.0
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Lengths straddling the envelope-segmentation threshold (1<<15) and
	// the correlator's block step, with non-pow2 tails.
	lengths := []int{
		len(d.Reference()) + 1,
		12345,
		1 << 15,
		1<<15 + 1,
		int(fs),
		3*int(fs) + 777,
	}
	for _, n := range lengths {
		x := synth(p, fs, n, 0.0173, 0.05, int64(n))

		want := detectMonolithic(d, x)

		var s DetectScratch
		got, err := d.DetectIntoCtx(context.Background(), nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, &s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: segmented %d detections, monolithic %d", n, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Index != w.Index {
				t.Errorf("n=%d det %d: index %d != %d", n, i, g.Index, w.Index)
			}
			if math.Abs(g.Time-w.Time) > 1e-9 {
				t.Errorf("n=%d det %d: time %v != %v", n, i, g.Time, w.Time)
			}
			if relErr(g.Strength, w.Strength) > 1e-3 {
				t.Errorf("n=%d det %d: strength %v != %v", n, i, g.Strength, w.Strength)
			}
			if relErr(g.SNR, w.SNR) > 1e-3 {
				t.Errorf("n=%d det %d: SNR %v != %v", n, i, g.SNR, w.SNR)
			}
		}
	}
}

// TestMatchedFilterEnvelopeOracle pins the band-limited analytic matched
// filter on a 30 s noisy beacon recording, with the flat template (2^13
// blocks) and the ASP's band-pass-folded one (2^14 blocks):
//
//   - D follows from the template: 2 for the flat one, whose spectral
//     skirts reach −100 dB only past a quarter of the band, 4 for the
//     folded one;
//   - the decimated envelope stays within a fixed bound of the exact
//     analytic envelope of the full linear correlation at every D-th
//     lag, recording edges included. The reference correlates the
//     recording with len(ref)-1 leading and 2^16 trailing zeros, so the
//     oracle envelope's own circular wrap falls far from the recording's
//     lags;
//   - the exact lags each detection is timed from equal CrossCorrelate's
//     within 1e-12 of its peak.
//
// The envelope bounds sit about 10× above the worst errors measured on
// x86-64 (3.0e-6 of the peak flat, 1.1e-9 folded; see the t.Logf
// lines): the block's circular quadrature aliases the template Hilbert
// kernel's tail past the block edges, and the −100 dB cut drops the bins
// outside the template's band.
func TestMatchedFilterEnvelopeOracle(t *testing.T) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, 30*int(fs), 0.0173, 0.3, 51)
	flat, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := dsp.NewBandPass(p.Low-200, p.High+200, fs, 301)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := NewDetectorFiltered(p, fs, nil, bp.Taps())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		d          *Detector
		block, dec int
		bound      float64
	}{
		{"flat", flat, 1 << 13, 2, 3e-5},
		{"folded", folded, 1 << 14, 4, 1.1e-8},
	} {
		c := tc.d.corr
		if n, dec := c.SegmentSize(), c.Decimation(); n != tc.block || dec != tc.dec {
			t.Fatalf("%s: block size %d at decimation %d, want %d at %d", tc.name, n, dec, tc.block, tc.dec)
		}
		env, err := c.MatchedEnvelopeCtx(context.Background(), nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lead := c.RefLen() - 1
		padded := make([]float64, lead+len(x)+1<<16)
		copy(padded[lead:], x)
		exact := onGrid(dsp.Envelope(dsp.CrossCorrelate(padded, tc.d.ref))[lead:lead+len(x)], tc.dec)
		if len(env) != len(exact) {
			t.Fatalf("%s: %d decimated lags, want %d", tc.name, len(env), len(exact))
		}
		peak, worst, at := 0.0, 0.0, 0
		for m, e := range exact {
			peak = math.Max(peak, e)
			if d := math.Abs(env[m] - e); d > worst {
				worst, at = d, m*tc.dec
			}
		}
		t.Logf("%s: worst envelope error %.2e of the peak at lag %d", tc.name, worst/peak, at)
		if worst > tc.bound*peak {
			t.Errorf("%s: envelope deviates %.2e of the peak from the exact analytic envelope at lag %d (bound %.0e)",
				tc.name, worst/peak, at, tc.bound)
		}

		r := dsp.CrossCorrelate(x, tc.d.ref)
		rPeak := 0.0
		for _, v := range r {
			rPeak = math.Max(rPeak, math.Abs(v))
		}
		dets := tc.d.Detect(x)
		if len(dets) < 140 {
			t.Fatalf("%s: %d detections, want ≈150", tc.name, len(dets))
		}
		worstR := 0.0
		lags := make([]float64, 3)
		for _, det := range dets {
			from := max(det.Index-1, 0)
			lags = lags[:min(det.Index+2, len(x))-from]
			c.CorrelateWindow(lags, x, from)
			for i, v := range lags {
				worstR = math.Max(worstR, math.Abs(v-r[from+i]))
			}
		}
		t.Logf("%s: worst timed-lag correlation error %.2e of the peak", tc.name, worstR/rPeak)
		if worstR > 1e-12*rPeak {
			t.Errorf("%s: timed lags deviate %.2e of the peak from CrossCorrelate (bound 1e-12)", tc.name, worstR/rPeak)
		}
	}
}

// relErr is |a-b| / max(|a|, |b|, 1e-30).
func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-30 {
		den = 1e-30
	}
	return math.Abs(a-b) / den
}

// BenchmarkDetectSegmented measures the segmented batch detection pass
// (DetectIntoCtx) on a 30 s recording, with the flat template and with
// the ASP's band-pass-folded one: the per-channel cost inside a locate.
func BenchmarkDetectSegmented(b *testing.B) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, 30*int(fs), 0.02, 0.3, 7)
	d, err := NewDetector(p, fs)
	if err != nil {
		b.Fatal(err)
	}
	// filtered is the detector the ASP stage builds: the 301-tap band-pass
	// with its 200 Hz margins (core.DefaultASPConfig) folded into the
	// template, which makes it 2064 samples at 44.1 kHz and the
	// correlation blocks 2^14 points instead of the flat template's 2^13.
	bp, err := dsp.NewBandPass(p.Low-200, p.High+200, fs, 301)
	if err != nil {
		b.Fatal(err)
	}
	filtered, err := NewDetectorFiltered(p, fs, nil, bp.Taps())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		d    *Detector
	}{
		{"flat", d},
		{"filtered", filtered},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var scratch DetectScratch
			dst, err := tc.d.DetectIntoCtx(ctx, nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, &scratch)
			if err != nil {
				b.Fatal(err)
			}
			if len(dst) == 0 {
				b.Fatal("no detections in warm-up pass")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = tc.d.DetectIntoCtx(ctx, dst, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, &scratch)
			}
		})
	}
}

// TestSelectFloat64MatchesSort pins the floor's selection to the sort it
// replaced: on random inputs with heavy ties and NaNs, selectFloat64
// returns exactly the value sort.Float64s leaves at the same index — the
// floor's 90th percentile and every other rank.
func TestSelectFloat64MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(300)
		a := make([]float64, n)
		for i := range a {
			switch rng.Intn(8) {
			case 0:
				a[i] = math.NaN()
			case 1, 2:
				a[i] = float64(rng.Intn(4)) // ties
			case 3:
				a[i] = math.Inf(1)
			default:
				a[i] = rng.ExpFloat64()
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		for _, k := range []int{n * floorQuantileNum / floorQuantileDen, rng.Intn(n), 0, n - 1} {
			got := selectFloat64(append([]float64(nil), a...), k)
			want := sorted[k]
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d (n=%d): rank %d = %v, sort.Float64s %v", trial, n, k, got, want)
			}
		}
	}
}

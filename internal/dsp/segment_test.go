package dsp

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// maxRelDiff returns the largest |a[i]-b[i]| relative to the peak
// magnitude of b.
func maxRelDiff(a, b []float64) float64 {
	peak := 0.0
	for _, v := range b {
		if m := math.Abs(v); m > peak {
			peak = m
		}
	}
	if peak == 0 {
		peak = 1
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst / peak
}

// bandChirp returns a Hann-tapered linear chirp of n samples sweeping
// [f0, f1] cycles/sample: a band-limited template like the beacon's,
// whose Hilbert kernel tail is short and whose spectrum sets a
// decimation above 1 once the band is narrow enough.
func bandChirp(n int, f0, f1 float64) []float64 {
	ref := make([]float64, n)
	for i := range ref {
		u := float64(i) / float64(n)
		ref[i] = 0.5 * (1 - math.Cos(2*math.Pi*u)) * math.Sin(2*math.Pi*(f0*float64(i)+0.5*(f1-f0)*u*float64(i)))
	}
	return ref
}

// exactEnvelopeGrid is the exact analytic envelope of the linear
// correlation x⋆ref at every dec-th lag, recording edges included: the
// recording gets len(ref)-1 leading and 2^16 trailing zeros so the
// monolithic envelope's circular wrap falls far from its lags.
func exactEnvelopeGrid(x, ref []float64, dec int) []float64 {
	lead := len(ref) - 1
	padded := make([]float64, lead+len(x)+1<<16)
	copy(padded[lead:], x)
	full := Envelope(CrossCorrelate(padded, ref))[lead : lead+len(x)]
	out := make([]float64, (len(x)+dec-1)/dec)
	for m := range out {
		out[m] = full[m*dec]
	}
	return out
}

// segStep is the decimated lags one segmented block yields.
func segStep(c *Correlator) int { return c.band().step / c.Decimation() }

// TestSegmentedMatchesMonolithic pins the band-limited segmented kernel's
// accuracy contract: over random band-limited templates (decimations 1 to
// 16) and input lengths (including tails shorter than one block), the
// decimated envelope stays within 2e-4 of the peak of the
// exact analytic envelope of the monolithic linear correlation, ~10×
// the worst trial (2.0e-5). What is left is the blocks' circular
// quadrature, which aliases the tail of a Hann chirp's Hilbert kernel,
// and the −100 dB band cut; the beacon templates' much smaller figures
// are in TestMatchedFilterEnvelopeOracle (internal/chirp).
func TestSegmentedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	seen := map[int]bool{}
	for trial := 0; trial < 30; trial++ {
		refLen := 400 + rng.Intn(1200)
		f0 := 0.02 + 0.3*rng.Float64()
		ref := bandChirp(refLen, f0, f0+0.02+0.15*rng.Float64())
		x := make([]float64, refLen+rng.Intn(60000))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := NewCorrelator(ref)
		dec := c.Decimation()
		seen[dec] = true
		rng.Intn(4) // the retired worker count, still drawn so every trial keeps its input
		var s SegScratch
		env, err := c.MatchedEnvelopeCtx(context.Background(), nil, FloatSamples(x, 0), EnvelopePrefix{}, &s)
		if err != nil {
			t.Fatal(err)
		}
		want := exactEnvelopeGrid(x, ref, dec)
		if len(env) != len(want) {
			t.Fatalf("trial %d: %d decimated lags, want %d", trial, len(env), len(want))
		}
		if d := maxRelDiff(env, want); d > 2e-4 {
			t.Fatalf("trial %d (ref=%d n=%d D=%d): segmented envelope deviates %.3e from monolithic",
				trial, refLen, len(x), dec, d)
		}
	}
	if len(seen) < 3 {
		t.Errorf("trials covered decimations %v, want at least three", seen)
	}
}

// TestSegmentedBlockExact pins the kernel's arithmetic on broadband
// templates, where the band spans every bin (D = 1): each block's
// envelope equals the circular analytic envelope of that block's own
// n-point correlation — correlateAt followed by EnvelopeInto at n — to
// rounding, block edges included.
func TestSegmentedBlockExact(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ref := make([]float64, 300)
	x := make([]float64, 20000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	if c.Decimation() != 1 {
		t.Fatalf("white template decimation %d, want 1", c.Decimation())
	}
	env, err := c.MatchedEnvelopeCtx(context.Background(), nil, FloatSamples(x, 0), EnvelopePrefix{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, step := c.SegmentSize(), c.band().step
	r := make([]float64, n)
	for at := 0; at < len(x); at += step {
		c.correlateAt(r, x[at:min(at+n, len(x))], n)
		want := EnvelopeInto(nil, r)[:min(step, len(x)-at)]
		if d := maxRelDiff(env[at:at+len(want)], want); d > 1e-12 {
			t.Fatalf("block at %d deviates %.3e from its circular analytic envelope", at, d)
		}
	}
}

// TestCorrelateWindowMatchesDirect pins the full-rate timing sums bit for
// bit: CorrelateWindow sums each lag in CrossCorrelateDirect's order,
// whatever the window's start, length or overlap with the recording
// edges.
func TestCorrelateWindowMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	ref := make([]float64, 333)
	x := make([]float64, 5000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	want := CrossCorrelateDirect(x, ref)
	for _, w := range [][2]int{{0, 1}, {0, 40}, {17, 3}, {1000, 33}, {len(x) - 400, 100}, {len(x) - 35, 35}, {len(x) - 1, 1}} {
		got := make([]float64, w[1])
		c.CorrelateWindow(got, x, w[0])
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(want[w[0]+i]) {
				t.Fatalf("window %v lag %d: %v, direct %v", w, w[0]+i, v, want[w[0]+i])
			}
		}
	}
}

// countdownCtx is a deterministic cancellation source: Err() becomes
// non-nil after the given number of calls. It lets tests assert that the
// segmented loops consult ctx per block and stop mid-pass, without timing
// races.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestSegmentedCtxCancelStopsBetweenBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	x := make([]float64, 200000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(bandChirp(400, 0.05, 0.15))
	env := make([]float64, (len(x)+c.Decimation()-1)/c.Decimation())
	blocks := (len(env) + segStep(c) - 1) / segStep(c)
	if blocks < 4 {
		t.Fatalf("want ≥4 blocks for a meaningful cancel point, got %d", blocks)
	}
	ctx := &countdownCtx{Context: context.Background(), after: 2}
	env, err := c.MatchedEnvelopeCtx(ctx, env, FloatSamples(x, 0), EnvelopePrefix{}, nil)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The serial loop checks ctx before each block: two blocks ran, the
	// rest of the output was never written.
	stop := 2 * segStep(c)
	if env[stop-1] == 0 {
		t.Fatalf("lag %d of the second block unwritten", stop-1)
	}
	for i := stop; i < len(env); i++ {
		if env[i] != 0 {
			t.Fatalf("lag %d written after cancellation (block boundary %d)", i, stop)
		}
	}
}

// TestSegmentedZeroAlloc pins the warm serial path at zero heap
// allocations — the property the detector's steady-state pins inherit.
func TestSegmentedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(75))
	x := make([]float64, 100000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(bandChirp(300, 0.05, 0.15))
	var s SegScratch
	ctx := context.Background()
	env, _ := c.MatchedEnvelopeCtx(ctx, nil, FloatSamples(x, 0), EnvelopePrefix{}, &s)
	win := make([]float64, 33)
	allocs := testing.AllocsPerRun(5, func() {
		env, _ = c.MatchedEnvelopeCtx(ctx, env, FloatSamples(x, 0), EnvelopePrefix{}, &s)
		c.CorrelateWindow(win, x, 5000)
		c.QuadratureWindow(win, x, 5000)
	})
	if allocs != 0 {
		t.Fatalf("warm segmented pass allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkMatchedFilterSession times the serial band-limited kernel over
// a session-length (20 s at 48 kHz) random input with a chirp template
// of the ASP's folded length and band (2700 samples, 1.8–6.6 kHz at
// 48 kHz, so D = 4): the decimated envelope the detector scans.
func BenchmarkMatchedFilterSession(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 960000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(bandChirp(2700, 1800.0/48000, 6600.0/48000))
	var s SegScratch
	ctx := context.Background()
	env, _ := c.MatchedEnvelopeCtx(ctx, nil, FloatSamples(x, 0), EnvelopePrefix{}, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, _ = c.MatchedEnvelopeCtx(ctx, env, FloatSamples(x, 0), EnvelopePrefix{}, &s)
	}
}

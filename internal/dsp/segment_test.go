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

// TestSegmentedMatchesMonolithic pins the segmented kernel's accuracy
// contract: over random input lengths (including non-pow2 tails shorter
// than one block) and worker counts, every lag agrees with the monolithic
// linear correlation within 1e-12 of the peak — the rounding difference
// of a different FFT factorization, nothing structural.
func TestSegmentedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		refLen := 16 + rng.Intn(1200)
		n := refLen + rng.Intn(60000)
		ref := make([]float64, refLen)
		x := make([]float64, n)
		for i := range ref {
			ref[i] = rng.NormFloat64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := NewCorrelator(ref)
		mono := c.CrossCorrelateInto(nil, x)
		workers := 1 + rng.Intn(4)
		var s SegScratch
		seg := c.CrossCorrelateSegmentedInto(nil, x, &s, workers)
		if len(seg) != len(mono) {
			t.Fatalf("trial %d: segmented length %d, monolithic %d", trial, len(seg), len(mono))
		}
		if d := maxRelDiff(seg, mono); d > 1e-12 {
			t.Fatalf("trial %d (ref=%d n=%d workers=%d): segmented deviates %.3e from monolithic",
				trial, refLen, n, workers, d)
		}
	}
}

// TestSegmentedRangeMatchesFull pins that filling lags [from, n) over an
// already-partially-filled destination (the streaming extension pattern)
// produces the same values as a full segmented pass from zero.
func TestSegmentedRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ref := make([]float64, 300)
	x := make([]float64, 20000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	mono := c.CrossCorrelateInto(nil, x)
	for _, from := range []int{0, 1, 100, c.SegmentStep(), c.SegmentStep() + 7, len(x) - 50} {
		dst := make([]float64, len(x))
		c.CorrelateSegmentedRange(dst, x, from, nil, 1)
		if d := maxRelDiff(dst[from:], mono[from:]); d > 1e-12 {
			t.Fatalf("from=%d: range fill deviates %.3e from monolithic", from, d)
		}
	}
}

// TestEnvelopeSegmentedMatchesMonolithic bounds the blocked envelope's
// truncation error: with a 4096-sample margin the seam error on a
// band-limited signal stays far below the 5×-floor detection threshold's
// discrimination (1e-3 relative here, vs the ≲1e-4 analysis in
// segment.go; the bound is loose to stay hardware-independent).
func TestEnvelopeSegmentedMatchesMonolithic(t *testing.T) {
	n := 3*envSegSize + 12345 // several blocks plus a ragged tail
	x := make([]float64, n)
	for i := range x {
		ti := float64(i)
		x[i] = math.Sin(0.07*ti) * (1 + 0.5*math.Sin(0.0003*ti))
	}
	mono := EnvelopeInto(nil, x)
	seg := EnvelopeSegmentedInto(nil, x, nil, 2)
	if len(seg) != len(mono) {
		t.Fatalf("length %d vs %d", len(seg), len(mono))
	}
	if d := maxRelDiff(seg, mono); d > 1e-3 {
		t.Fatalf("segmented envelope deviates %.3e from monolithic", d)
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
	ref := make([]float64, 400)
	x := make([]float64, 200000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	blocks := (len(x) + c.SegmentStep() - 1) / c.SegmentStep()
	if blocks < 4 {
		t.Fatalf("want ≥4 blocks for a meaningful cancel point, got %d", blocks)
	}
	ctx := &countdownCtx{Context: context.Background(), after: 2}
	dst, err := c.CrossCorrelateSegmentedCtx(ctx, nil, x, nil, 1)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The serial loop checks ctx before each block: two blocks ran, the
	// rest of dst was never written.
	stop := 2 * c.SegmentStep()
	for i := stop; i < len(dst); i++ {
		if dst[i] != 0 {
			t.Fatalf("lag %d written after cancellation (block boundary %d)", i, stop)
		}
	}
	// The envelope loop obeys the same contract.
	ectx := &countdownCtx{Context: context.Background(), after: 1}
	env := make([]float64, 3*envSegSize)
	_, err = EnvelopeSegmentedCtx(ectx, env, x[:3*envSegSize], nil, 1)
	if err != context.Canceled {
		t.Fatalf("envelope: want context.Canceled, got %v", err)
	}
}

// TestSegmentedZeroAlloc pins the warm serial path at zero heap
// allocations — the property the detector's steady-state pins inherit.
func TestSegmentedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(75))
	ref := make([]float64, 300)
	x := make([]float64, 100000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	var s SegScratch
	dst := c.CrossCorrelateSegmentedInto(nil, x, &s, 1)
	env := EnvelopeSegmentedInto(nil, x, &s, 1)
	allocs := testing.AllocsPerRun(5, func() {
		dst = c.CrossCorrelateSegmentedInto(dst, x, &s, 1)
		env = EnvelopeSegmentedInto(env, x, &s, 1)
	})
	if allocs != 0 {
		t.Fatalf("warm segmented pass allocates %.1f times per run, want 0", allocs)
	}
}

// benchSession renders a session-length (20 s at 48 kHz) random input and
// a filtered-template-length reference — the shapes the pipeline's
// detection stage actually runs.
func benchSession() (x, ref []float64) {
	rng := rand.New(rand.NewSource(9))
	x = make([]float64, 960000)
	ref = make([]float64, 2700)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	return x, ref
}

func BenchmarkCrossCorrelateSessionMono(b *testing.B) {
	x, ref := benchSession()
	c := NewCorrelator(ref)
	dst := c.CrossCorrelateInto(nil, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.CrossCorrelateInto(dst, x)
	}
}

func BenchmarkCrossCorrelateSessionSegmented(b *testing.B) {
	x, ref := benchSession()
	c := NewCorrelator(ref)
	var s SegScratch
	dst := c.CrossCorrelateSegmentedInto(nil, x, &s, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.CrossCorrelateSegmentedInto(dst, x, &s, 1)
	}
}

func BenchmarkEnvelopeSessionMono(b *testing.B) {
	x, _ := benchSession()
	dst := EnvelopeInto(nil, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EnvelopeInto(dst, x)
	}
}

func BenchmarkEnvelopeSessionSegmented(b *testing.B) {
	x, _ := benchSession()
	var s SegScratch
	dst := EnvelopeSegmentedInto(nil, x, &s, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EnvelopeSegmentedInto(dst, x, &s, 1)
	}
}

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

// segStep is the alias-free lags one segmented block yields.
func segStep(c *Correlator) int { return c.SegmentSize() - c.RefLen() + 1 }

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
		seg, env, err := c.MatchedFilterCtx(context.Background(), nil, nil, x, &s, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg) != len(mono) || len(env) != len(mono) {
			t.Fatalf("trial %d: segmented lengths %d/%d, monolithic %d", trial, len(seg), len(env), len(mono))
		}
		if d := maxRelDiff(seg, mono); d > 1e-12 {
			t.Fatalf("trial %d (ref=%d n=%d workers=%d): segmented deviates %.3e from monolithic",
				trial, refLen, n, workers, d)
		}
	}
}

// TestSegmentedRangeMatchesFull pins that filling lags [from, n) over an
// already-partially-filled destination (the streaming extension pattern)
// produces the same correlation as a full pass from zero, and leaves the
// lags before from untouched.
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
	for _, from := range []int{0, 1, 100, segStep(c), segStep(c) + 7, len(x) - 50} {
		dst := make([]float64, len(x))
		env := make([]float64, len(x))
		c.MatchedFilterRange(dst, env, x, from, nil)
		if d := maxRelDiff(dst[from:], mono[from:]); d > 1e-12 {
			t.Fatalf("from=%d: range fill deviates %.3e from monolithic", from, d)
		}
		for i := 0; i < from; i++ {
			if dst[i] != 0 || env[i] != 0 {
				t.Fatalf("from=%d: lag %d written", from, i)
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
	ref := make([]float64, 400)
	x := make([]float64, 200000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	blocks := (len(x) + segStep(c) - 1) / segStep(c)
	if blocks < 4 {
		t.Fatalf("want ≥4 blocks for a meaningful cancel point, got %d", blocks)
	}
	ctx := &countdownCtx{Context: context.Background(), after: 2}
	dst, env, err := c.MatchedFilterCtx(ctx, nil, nil, x, nil, 1)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The serial loop checks ctx before each block: two blocks ran, the
	// rest of both outputs was never written.
	stop := 2 * segStep(c)
	if dst[stop-1] == 0 || env[stop-1] == 0 {
		t.Fatalf("lag %d of the second block unwritten", stop-1)
	}
	for i := stop; i < len(dst); i++ {
		if dst[i] != 0 || env[i] != 0 {
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
	ctx := context.Background()
	dst, env, _ := c.MatchedFilterCtx(ctx, nil, nil, x, &s, 1)
	allocs := testing.AllocsPerRun(5, func() {
		dst, env, _ = c.MatchedFilterCtx(ctx, dst, env, x, &s, 1)
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

// BenchmarkMatchedFilterSession times the serial segmented kernel, which
// yields the correlation and its envelope together; its monolithic
// counterpart is CrossCorrelateSessionMono plus EnvelopeSessionMono.
func BenchmarkMatchedFilterSession(b *testing.B) {
	x, ref := benchSession()
	c := NewCorrelator(ref)
	var s SegScratch
	ctx := context.Background()
	dst, env, _ := c.MatchedFilterCtx(ctx, nil, nil, x, &s, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, env, _ = c.MatchedFilterCtx(ctx, dst, env, x, &s, 1)
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

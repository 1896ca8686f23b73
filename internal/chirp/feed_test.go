package chirp

import (
	"context"
	"math"
	"testing"

	"hyperear/internal/dsp"
)

// feedTemplates are the three matched filters a streamed session can
// feed, one per decimation: the flat audible template (D = 2), the ASP's
// band-pass-folded audible one (D = 4) and the folded inaudible one
// (D = 8).
func feedTemplates(t *testing.T) []struct {
	name string
	d    *Detector
	x    []float64
	dec  int
} {
	t.Helper()
	type tc = struct {
		name string
		d    *Detector
		x    []float64
		dec  int
	}
	folded := func(p Params, fs float64) *Detector {
		bp, err := dsp.NewBandPass(p.Low-200, p.High+200, fs, 301)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDetectorFiltered(p, fs, nil, bp.Taps())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	flat, err := NewDetector(Default(), 44100)
	if err != nil {
		t.Fatal(err)
	}
	return []tc{
		{"flat", flat, synth(Default(), 44100, 70000, 0.0173, 0.3, 61), 2},
		{"folded", folded(Default(), 44100), synth(Default(), 44100, 70000, 0.0173, 0.3, 62), 4},
		{"inaudible", folded(Inaudible(), 48000), synth(Inaudible(), 48000, 70000, 0.0119, 0.3, 63), 8},
	}
}

// feedChunkings are the chunk-size patterns a feed is pushed with,
// cycled until the input runs out (nil is one whole-recording chunk).
func feedChunkings(c *dsp.Correlator) map[string][]int {
	n, step := c.SegmentSize(), c.BlockStep()
	return map[string][]int{
		"1":          {1},
		"4096":       {4096},
		"65536":      {65536},
		"straddling": {n - 1, 2, step - 1, 1, step + 1, n + 3},
		"whole":      nil,
	}
}

// pushChunked feeds x to a fresh feed of d in the given chunk pattern.
func pushChunked(d *Detector, x []float64, sizes []int) dsp.EnvelopePrefix {
	f := d.NewEnvelopeFeed()
	for pos, i := 0, 0; pos < len(x); i++ {
		k := len(x) - pos
		if len(sizes) > 0 {
			k = min(k, sizes[i%len(sizes)])
		}
		f.Push(x[pos : pos+k])
		pos += k
	}
	return f.Prefix()
}

// sameEnvelope fails unless got and want agree bit for bit at every lag.
func sameEnvelope(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lags, want %d", what, len(got), len(want))
	}
	for m := range want {
		if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
			t.Fatalf("%s: lag %d is %v, batch %v", what, m, got[m], want[m])
		}
	}
}

// TestEnvelopeFeedMatchesBatch pins the streamed blocks: for each
// decimation, chunking and recording length — shorter than one block,
// exactly k·BlockStep()+SegmentSize() and one either side — a feed holds
// exactly the blocks whose whole input has arrived, and the envelope
// built from its prefix equals MatchedEnvelopeCtx over the whole
// recording at every lag, as do the detections.
func TestEnvelopeFeedMatchesBatch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range feedTemplates(t) {
		c := tc.d.corr
		if c.Decimation() != tc.dec {
			t.Fatalf("%s: decimation %d, want %d", tc.name, c.Decimation(), tc.dec)
		}
		n, step := c.SegmentSize(), c.BlockStep()
		per := step / tc.dec
		for _, l := range []int{n / 2, n - 1, n, n + 1, 3*step + n - 1, 3*step + n, 3*step + n + 1} {
			x := tc.x[:l]
			// Blocks k with k·step+n ≤ l have their whole input.
			blocks := 0
			for k := 0; k*step+n <= l; k++ {
				blocks++
			}
			want, err := c.MatchedEnvelopeCtx(ctx, nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantDets := tc.d.Detect(x)
			for name, sizes := range feedChunkings(c) {
				what := tc.name + "/" + name
				pre := pushChunked(tc.d, x, sizes)
				if pre.Len() != blocks*per {
					t.Fatalf("%s at %d samples: prefix holds %d lags, want %d blocks of %d", what, l, pre.Len(), blocks, per)
				}
				got, err := c.MatchedEnvelopeCtx(ctx, nil, dsp.FloatSamples(x, 0), pre, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameEnvelope(t, what, got, want)
				dets, err := tc.d.DetectIntoCtx(ctx, nil, dsp.FloatSamples(x, 0), pre, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameDetections(t, what, dets, wantDets)
			}
		}
	}
}

// sameDetections fails unless got and want agree field for field, bit
// for bit.
func sameDetections(t *testing.T, what string, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Strength) != math.Float64bits(w.Strength) || math.Float64bits(g.SNR) != math.Float64bits(w.SNR) {
			t.Fatalf("%s: detection %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// TestEnvelopePrefixForeignIgnored: a prefix is used only by the
// Detector whose feed built it and only for blocks complete in the
// recording at hand. Another detector's prefix, or one built over more
// audio than the recording, must leave the envelope equal to the batch
// one.
func TestEnvelopePrefixForeignIgnored(t *testing.T) {
	ctx := context.Background()
	tcs := feedTemplates(t)
	flat, folded := tcs[0], tcs[1]
	x := folded.x
	want, err := folded.d.corr.MatchedEnvelopeCtx(ctx, nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre := pushChunked(flat.d, x, nil); pre.Len() == 0 {
		t.Fatal("flat feed built no blocks")
	} else {
		got, err := folded.d.corr.MatchedEnvelopeCtx(ctx, nil, dsp.FloatSamples(x, 0), pre, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameEnvelope(t, "another detector's prefix", got, want)
	}

	// A prefix over more audio than the recording: its fourth block reads
	// samples the recording does not have.
	c := folded.d.corr
	short := x[:3*c.BlockStep()+c.SegmentSize()-1]
	pre := pushChunked(folded.d, x, nil)
	if blocks := pre.Len() * folded.dec / c.BlockStep(); blocks != 4 {
		t.Fatalf("prefix over %d samples holds %d blocks, want 4", len(x), blocks)
	}
	want, err = c.MatchedEnvelopeCtx(ctx, nil, dsp.FloatSamples(short, 0), dsp.EnvelopePrefix{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MatchedEnvelopeCtx(ctx, nil, dsp.FloatSamples(short, 0), pre, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameEnvelope(t, "prefix over a longer input", got, want)
}

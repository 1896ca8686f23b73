package chirp

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"hyperear/internal/dsp"
)

// stereoPCM quantizes a and b to interleaved stereo int16 little-endian
// PCM and returns it with the float64 channels it decodes to, by the
// float64(int16)/32767 rule.
func stereoPCM(a, b []float64) (raw []byte, c1, c2 []float64) {
	raw = make([]byte, 4*len(a))
	c1, c2 = make([]float64, len(a)), make([]float64, len(a))
	for i := range a {
		for ch, v := range [2]float64{a[i], b[i]} {
			q := int16(math.Round(math.Max(-1, math.Min(1, v)) * 32767))
			binary.LittleEndian.PutUint16(raw[4*i+2*ch:], uint16(q))
			[2][]float64{c1, c2}[ch][i] = float64(q) / 32767
		}
	}
	return raw, c1, c2
}

// TestDetectPCMMatchesFloat pins the PCM read path a streamed session's
// locate takes: for the ASP's folded audible template (wideband timing,
// D = 4) and folded inaudible one (narrowband lobe scan, D = 8), the
// envelope and the detections over one channel of stereo int16 PCM are
// the bits they are over the float64 samples that PCM decodes to, on
// both channels, with no prefix and with a feed's prefix. Each recording
// starts and ends inside a beacon's timing reach, so the first beacon's
// window clips at sample 0 and the last one's at the recording's end.
// With warm scratch the PCM pass allocates nothing.
func TestDetectPCMMatchesFloat(t *testing.T) {
	ctx := context.Background()
	for _, tc := range feedTemplates(t)[1:] {
		d, c := tc.d, tc.d.corr
		before, after := d.timingReach()
		fs := d.fs
		period := int(d.params.Period * fs)
		// The folded template's peak sits its group delay ahead of the
		// arrival: an arrival one decimation step after it puts the first
		// peak a few lags from lag 0, and the length puts the last peak
		// within after/2 of the end.
		lead := int(d.delay) + c.Decimation()
		n := 6*period + lead + after/2
		a := synth(d.params, fs, n, float64(lead)/fs, 0.05, 71)
		b := synth(d.params, fs, n, float64(lead+5)/fs, 0.05, 72)
		for i := range a {
			a[i], b[i] = 0.5*a[i], 0.5*b[i]
		}
		raw, c1, c2 := stereoPCM(a, b)
		for ch, x := range [][]float64{c1, c2} {
			pcm := dsp.Stereo16Samples(raw, ch)
			for name, pre := range map[string]dsp.EnvelopePrefix{"no prefix": {}, "prefix": pushChunked(d, x, []int{4096})} {
				what := tc.name + "/" + name
				want, err := c.MatchedEnvelopeCtx(ctx, nil, dsp.FloatSamples(x, 0), pre, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.MatchedEnvelopeCtx(ctx, nil, pcm, pre, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameEnvelope(t, what, got, want)
				wantDets, err := d.DetectIntoCtx(ctx, nil, dsp.FloatSamples(x, 0), pre, nil)
				if err != nil {
					t.Fatal(err)
				}
				var scr DetectScratch
				dets, err := d.DetectIntoCtx(ctx, nil, pcm, pre, &scr)
				if err != nil {
					t.Fatal(err)
				}
				sameDetections(t, what, dets, wantDets)
				if !raceEnabled {
					if allocs := testing.AllocsPerRun(3, func() {
						dets, _ = d.DetectIntoCtx(ctx, dets, pcm, pre, &scr)
					}); allocs > 0.5 {
						t.Errorf("%s: %.2f allocs/run over PCM, want 0 with warm scratch", what, allocs)
					}
				}
				if len(dets) < 6 {
					t.Fatalf("%s: %d beacons, want ≥ 6", what, len(dets))
				}
				if first, last := dets[0].Index, dets[len(dets)-1].Index; first >= before || last+after < n {
					t.Fatalf("%s: beacons at lags %d..%d of %d: no window clips (reach %d before, %d after)",
						what, first, last, n, before, after)
				}
			}
		}
	}
}

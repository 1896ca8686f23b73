package chirp

import (
	"context"
	"fmt"
	"math"
	"slices"

	"hyperear/internal/dsp"
)

// Detection is one chirp arrival found in a recording.
type Detection struct {
	// Time is the arrival timestamp in seconds from the start of the
	// recording, with sub-sample resolution from parabolic interpolation.
	Time float64
	// Index is the integer sample index of the correlation peak.
	Index int
	// Strength is the correlation value at the peak.
	Strength float64
	// SNR is the ratio of the peak to the correlation noise floor
	// (linear); it gates weak or spurious peaks.
	SNR float64
}

// Detector finds chirp beacons in a recorded channel with a matched filter,
// following the BeepBeep-style detection the paper adopts (§IV-A): the
// recording is correlated with a reference chirp and maxima significantly
// above the background-noise correlation level are accepted as signals.
type Detector struct {
	params Params
	fs     float64
	ref    []float64
	// corr is the matched filter with the template spectrum cached per
	// transform size, so repeated Detect calls on same-length inputs
	// (stream blocks, fixed recording windows) skip the template FFT.
	corr *dsp.Correlator
	// delay is the timing offset in samples a prefiltered template
	// (NewDetectorFiltered) shifts the correlation peak by — the taps'
	// (N-1)/2 group delay. It is added back when converting peak indices
	// to arrival times; Detection.Index stays the raw peak position in
	// the correlation sequence.
	delay float64
	// Threshold is the minimum peak-to-noise-floor ratio (linear) to
	// accept a detection. Default 5.
	Threshold float64
	// MinSeparation is the minimum spacing between accepted detections in
	// seconds. Default 0.5·Period.
	MinSeparation float64
}

// NewDetector builds a Detector for the given beacon parameters and
// sampling rate, using the flat matched-filter template.
func NewDetector(p Params, fs float64) (*Detector, error) {
	return NewDetectorShaped(p, fs, nil)
}

// NewDetectorShaped builds a Detector whose template is calibrated to a
// frequency response (see Params.ReferenceShaped) — needed for unbiased
// timing of near-ultrasonic beacons through a rolled-off microphone. A
// nil gain yields the flat template.
func NewDetectorShaped(p Params, fs float64, gain func(freqHz float64) float64) (*Detector, error) {
	if err := p.ValidateAt(fs); err != nil {
		return nil, err
	}
	ref := p.ReferenceShaped(fs, gain)
	return &Detector{
		params:        p,
		fs:            fs,
		ref:           ref,
		corr:          dsp.NewCorrelator(ref),
		Threshold:     5,
		MinSeparation: p.Period / 2,
	}, nil
}

// ValidateAt is Validate plus the sampling-rate check every Detector
// makes: a 10% guard band over Nyquist. A chirp apex within a few
// hundred hertz of fs/2 aliases through any realistic anti-alias filter
// (this is why the 18-21.5 kHz inaudible beacon needs the phones' 48 kHz
// capture mode, not the default 44.1 kHz).
func (p Params) ValidateAt(fs float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if fs < 2.2*p.High {
		return fmt.Errorf("chirp: sampling rate %v Hz too low for a %v Hz chirp (need ≥ %v)",
			fs, p.High, 2.2*p.High)
	}
	return nil
}

// NewDetectorFiltered builds a Detector whose matched-filter template has
// a linear-phase FIR (the ASP band-pass) pre-convolved into it. For a
// symmetric filter h, correlating the RAW recording against ref⊛h equals
// correlating the FILTERED recording against ref — shifted left by h's
// (N-1)/2-sample group delay, which the detector adds back when
// converting peaks to timestamps. The pipeline saves one full FFT
// convolution per channel per call (and its two session-length buffers):
// the filtering rides along in the template spectrum for free.
//
// The taps must be linear-phase (symmetric), as every design in
// internal/dsp is; asymmetric taps would make the delay frequency-
// dependent and the timing wrong, so they are rejected.
func NewDetectorFiltered(p Params, fs float64, gain func(freqHz float64) float64, taps []float64) (*Detector, error) {
	d, err := NewDetectorShaped(p, fs, gain)
	if err != nil {
		return nil, err
	}
	if len(taps) == 0 {
		return d, nil
	}
	for i, j := 0, len(taps)-1; i < j; i, j = i+1, j-1 {
		if math.Abs(taps[i]-taps[j]) > 1e-12 {
			return nil, fmt.Errorf("chirp: prefilter taps are not linear-phase (tap %d != tap %d)", i, j)
		}
	}
	// Full convolution, not the group-delay-aligned truncation FIR.Apply
	// performs: the template keeps the filter's leading and trailing
	// ringing so no correlation energy is lost at the chirp edges.
	full := make([]float64, len(d.ref)+len(taps)-1)
	for i, ri := range d.ref {
		if ri == 0 {
			continue
		}
		for j, hj := range taps {
			full[i+j] += ri * hj
		}
	}
	d.ref = full
	d.corr = dsp.NewCorrelator(full)
	d.delay = float64(len(taps)-1) / 2
	return d, nil
}

// NewEnvelopeFeed returns a feed that runs this Detector's matched-filter
// blocks over one channel as its audio arrives (dsp.EnvelopeFeed); its
// Prefix lets DetectIntoCtx skip them.
func (d *Detector) NewEnvelopeFeed() *dsp.EnvelopeFeed { return d.corr.NewEnvelopeFeed() }

// Reference returns a copy of the matched-filter template. No production
// path calls it: the detector tests here and internal/core's replay of
// the pre-band-kernel detector read the template through it.
func (d *Detector) Reference() []float64 {
	out := make([]float64, len(d.ref))
	copy(out, d.ref)
	return out
}

// envCand is one envelope local maximum competing in non-maximum
// suppression.
type envCand struct {
	idx int
	val float64
}

// DetectScratch holds the reusable working set of one detection pass: the
// decimated Hilbert envelope of the matched-filter output, the
// floor-estimation sample, the candidate lists, the full-rate timing
// window and, over PCM, the decoded samples it reads. A zero value is
// ready to use; after the first call on a given input size every buffer
// is warm and DetectInto performs no heap allocations. A DetectScratch
// must not be shared between concurrent DetectInto calls (the Detector
// itself stays safe for concurrent use — each goroutine brings its own
// scratch).
type DetectScratch struct {
	env      []float64
	absSamp  []float64
	cands    []envCand
	accepted []envCand
	// win and quad hold the exact correlation and quadrature lags around
	// one accepted peak.
	win  []float64
	quad []float64
	// samp holds the decoded samples one peak's timing reads, when the
	// samples are PCM.
	samp []float64
	// seg holds the matched-filter kernel's block spectrum buffer.
	seg dsp.SegScratch
}

// Detect returns all chirp arrivals in x, sorted by time.
//
// Detection is two-stage: candidate peaks are found on the Hilbert
// envelope of the matched-filter output (the envelope is immune to
// carrier-cycle ambiguity, which matters once the chirp's center
// frequency approaches Nyquist), sampled at every D-th lag by the
// band-limited kernel, then each accepted peak is timed at full rate by
// parabolic interpolation of exact correlation lags summed from the
// samples — the raw correlation at the carrier peak nearest the envelope
// maximum (the raw peak carries the sharpest timing information), or the
// full-rate envelope for narrowband beacons.
func (d *Detector) Detect(x []float64) []Detection {
	if len(x) < len(d.ref) {
		return nil
	}
	return d.DetectInto(nil, x, &DetectScratch{})
}

// DetectInto is Detect appending into dst (reset to length 0 first) with
// caller-owned scratch. Hot loops — ASP's two channels on every locate —
// reuse one scratch per channel and run the whole detection pass without
// heap allocations once warm. A nil scratch is allowed and degrades to
// per-call buffers.
//
//hyperearvet:zeroalloc
func (d *Detector) DetectInto(dst []Detection, x []float64, s *DetectScratch) []Detection {
	dst, _ = d.DetectIntoCtx(context.Background(), dst, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, s)
	return dst
}

// DetectIntoCtx is DetectInto over samples held from index 0, float64
// or PCM, with mid-recording cancellation. The matched filter's
// decimated envelope runs as fixed-size overlap-save blocks
// (dsp.Correlator.MatchedEnvelopeCtx — the blocks the streaming
// detector's feed runs as audio arrives), and ctx is checked before
// every block, so a canceled locate aborts between blocks instead of
// finishing a session-length pass. On cancellation the partial dst plus
// ctx's error are returned.
//
// pre is the envelope's leading blocks as one of this Detector's
// NewEnvelopeFeed feeds computed them while x arrived; only the blocks
// after them run here. The detections are the same bits with or without
// it, and over PCM or the float64 samples it decodes to. The zero value,
// and any other Detector's prefix, leaves every block to run here. Over
// PCM, only the samples of the blocks that run here and of each
// accepted peak's timing window are decoded.
//
//hyperearvet:zeroalloc
func (d *Detector) DetectIntoCtx(ctx context.Context, dst []Detection, x dsp.Samples, pre dsp.EnvelopePrefix, s *DetectScratch) ([]Detection, error) {
	dst = dst[:0]
	if x.Len() < len(d.ref) {
		return dst, ctx.Err()
	}
	if s == nil {
		//hyperearvet:allow zeroalloc nil scratch is the caller opting out of reuse; hot loops pass a warm DetectScratch
		s = &DetectScratch{}
	}
	var err error
	s.env, err = d.corr.MatchedEnvelopeCtx(ctx, s.env, x, pre, &s.seg)
	if err != nil {
		return dst, err
	}
	return d.detectCore(dst, x, s.env, 0, 0, x.Len(), s), nil
}

// detectCore is the shared threshold/NMS/timing pass over a window of
// the matched filter's decimated Hilbert envelope: env[m] is the
// envelope at lag off + D·m of the recording, D = Decimation(). The
// floor, the candidates and non-maximum suppression all run on env; each
// accepted peak whose lag lies in [lo, hi) is then timed at full rate
// from exact sums over the window of x that timing reads (timingReach),
// which x must hold unless the recording ends first. Indices and times
// are the recording's. The batch path passes the whole recording and its
// envelope with every lag; the streaming detector passes the samples it
// keeps, the window around one final block and that block's lags.
//
//hyperearvet:zeroalloc
func (d *Detector) detectCore(dst []Detection, x dsp.Samples, env []float64, off, lo, hi int, s *DetectScratch) []Detection {
	dec := d.corr.Decimation()
	var floor float64
	floor, s.absSamp = correlationFloor(env, s.absSamp)
	if floor == 0 {
		floor = 1e-30
	}
	minSep := d.minSepSamples()

	// Collect envelope local maxima above the threshold, at their lags.
	// The threshold test comes first: most lags fail it, so the branch
	// predicts well, and the conjunction has no side effects, so the
	// order changes no candidate.
	cands := s.cands[:0]
	thresh := d.Threshold * floor
	for i := 1; i < len(env)-1; i++ {
		if env[i] > thresh && env[i] >= env[i-1] && env[i] > env[i+1] {
			cands = append(cands, envCand{off + i*dec, env[i]})
		}
	}
	s.cands = cands
	// Greedy non-maximum suppression: strongest first, enforce spacing.
	slices.SortFunc(cands, func(a, b envCand) int {
		switch {
		case a.val > b.val:
			return -1
		case a.val < b.val:
			return 1
		}
		return 0
	})
	accepted := s.accepted[:0]
	for _, c := range cands {
		ok := true
		for _, a := range accepted {
			if abs(c.idx-a.idx) < minSep {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, c)
		}
	}
	s.accepted = accepted
	slices.SortFunc(accepted, func(a, b envCand) int { return a.idx - b.idx })

	// Sub-sample timing. Two regimes, selected by the carrier-to-bandwidth
	// ratio fc/B:
	//
	//   - Wideband (fc/B ≤ 2, e.g. the paper's 2-6.4 kHz chirp): the
	//     correlation's central carrier peak towers over its neighbours
	//     (the envelope main lobe spans about one carrier cycle), so
	//     locating the raw-correlation maximum near the envelope peak is
	//     cycle-safe and inherits the carrier's sharp curvature — the
	//     most precise timing available.
	//   - Narrowband-relative (fc/B > 2, e.g. the 18-21.5 kHz inaudible
	//     beacon): many near-equal carrier peaks fit under the envelope
	//     and the raw maximum slips cycles as the geometry drifts; the
	//     smooth envelope is then the only unbiased timing reference.
	//
	// A decimated maximum lies within D lags of the full-rate peak of its
	// lobe, so the wideband search window is widened by D. Narrowband
	// envelopes are broad enough for an echo's lobe to sit within a few
	// D of the direct one at nearly its height, so the narrowband rule
	// scans every lobe within the separation window that reaches
	// narrowScanRel of the candidate, D lags either side of its samples,
	// and keeps the highest full-rate envelope lag.
	wideband, half := d.timingRule()
	before, after := d.timingReach()
	for _, c := range accepted {
		if c.idx < lo || c.idx >= hi {
			continue
		}
		xw, xoff := x.Window(&s.samp, c.idx-before, c.idx+after+1)
		var p windowPeak
		if wideband {
			p = d.peakIn(xw, xoff, c.idx-half, c.idx+half, false, s)
		} else {
			mc, k := (c.idx-off)/dec, minSep/dec
			last, lobe := min(mc+k, len(env)-1), narrowScanRel*c.val
			for m := max(mc-k, 0); m <= last; m++ {
				if env[m] < lobe {
					continue
				}
				run := m
				for m < last && env[m+1] >= lobe {
					m++
				}
				if q := d.peakIn(xw, xoff, off+dec*(run-1)+1, off+dec*(m+1)-1, true, s); q.sample > p.sample {
					p = q
				}
			}
		}
		dst = append(dst, Detection{
			Time:     (float64(p.idx) + p.off + d.delay) / d.fs,
			Index:    p.idx,
			Strength: p.val,
			SNR:      c.val / floor,
		})
	}
	return dst
}

// minSepSamples is MinSeparation in samples, at least one.
//
//hyperearvet:zeroalloc
func (d *Detector) minSepSamples() int { return max(int(d.MinSeparation*d.fs), 1) }

// timingRule returns detectCore's sub-sample timing regime for the
// beacon — wideband (fc/B ≤ 2) or narrowband — and the wideband search
// half-width in lags.
//
//hyperearvet:zeroalloc
func (d *Detector) timingRule() (wideband bool, half int) {
	carrier := (d.params.Low + d.params.High) / 2
	return carrier/(d.params.High-d.params.Low) <= 2, int(d.fs/carrier) + 1 + d.corr.Decimation()
}

// timingReach returns the samples detectCore's timing of a peak at lag c
// reads: [c−before, c+after]. The wideband search spans c±half, the
// narrowband lobe scan D·⌊MinSeparation/D⌋ + D − 1 lags either side;
// the interpolation adds a lag each side, the correlation sums a
// template past the last lag, and the quadrature sums its lead each
// side.
//
//hyperearvet:zeroalloc
func (d *Detector) timingReach() (before, after int) {
	wideband, half := d.timingRule()
	w, lead := half+1, 0
	if !wideband {
		dec := d.corr.Decimation()
		w, lead = d.minSepSamples()/dec*dec+dec, d.corr.QuadratureLead()
	}
	return w + lead, w + lead + len(d.ref) - 1
}

// narrowScanRel is the fraction of a narrowband candidate's decimated
// envelope a nearby lobe's samples must reach for the lobe to be timed
// at full rate. A lobe whose full-rate peak beats the candidate's has a
// sample within D/2 lags of that peak, and the inaudible beacon's
// envelope falls far less than half over D/2 = 4 lags.
const narrowScanRel = 0.5

// windowPeak is the largest exact lag in a search window: its index,
// sample value, and parabolic sub-sample offset and peak value.
type windowPeak struct {
	idx      int
	sample   float64
	off, val float64
}

// peakIn finds the largest exact correlation (envelope when analytic)
// lag in [lo, hi] ∩ [xoff, xoff+len(x)) and interpolates it; x holds the
// recording's samples from index xoff on, and lags and the returned
// index are the recording's. The exact lags span one more on each side
// for the interpolation. x is a peak's timing window: its edges bind
// only where the recording's do, so ParabolicInterp's edge rule (offset
// 0) applies exactly at the recording edges.
//
//hyperearvet:zeroalloc
func (d *Detector) peakIn(x []float64, xoff, lo, hi int, analytic bool, s *DetectScratch) windowPeak {
	lo, hi = max(lo-xoff, 0), min(hi-xoff, len(x)-1)
	wlo := max(lo-1, 0)
	s.win = resize(s.win, min(hi+1, len(x)-1)-wlo+1)
	r := s.win
	d.corr.CorrelateWindow(r, x, wlo)
	if analytic {
		s.quad = resize(s.quad, len(r))
		q := s.quad
		d.corr.QuadratureWindow(q, x, wlo)
		for i, re := range r {
			r[i] = math.Sqrt(re*re + q[i]*q[i])
		}
	}
	best := lo
	for i := lo + 1; i <= hi; i++ {
		if r[i-wlo] > r[best-wlo] {
			best = i
		}
	}
	off, val := dsp.ParabolicInterp(r, best-wlo)
	return windowPeak{idx: best + xoff, sample: r[best-wlo], off: off, val: val}
}

// resize returns buf at length n, reallocating only when it is too
// small; the contents are not kept.
//
//hyperearvet:zeroalloc
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// floorQuantileNum/floorQuantileDen select the quantile of the sampled
// |r| distribution used as the background level: the 90th percentile.
// The matched-filter output under noise is roughly Gaussian, and
// thresholding against the 90th percentile suppresses false peaks without
// costing sensitivity (the median would sit lower and admit more of the
// Gaussian tail).
const (
	floorQuantileNum = 9
	floorQuantileDen = 10
)

// correlationFloor estimates the background correlation level as the 90th
// percentile of the absolute value (floorQuantile*), sampled sparsely; the
// (sparse) chirp peaks themselves barely shift that quantile. The sample
// buffer is reused across calls via scratch and returned for the caller to
// keep.
//
//hyperearvet:zeroalloc
func correlationFloor(r, scratch []float64) (float64, []float64) {
	if len(r) == 0 {
		return 0, scratch
	}
	// Sample up to 4096 points evenly to bound the selection cost.
	step := len(r)/4096 + 1
	abs := scratch[:0]
	for i := 0; i < len(r); i += step {
		abs = append(abs, math.Abs(r[i]))
	}
	return selectFloat64(abs, len(abs)*floorQuantileNum/floorQuantileDen) + 1e-30, abs
}

// selectFloat64 returns the value sort.Float64s would leave at index k of
// a — NaNs first, then ascending — in expected O(len(a)) by three-way
// quickselect, permuting a. Equal values are one value (the samples are
// absolute values, so there is no −0 to tell apart), which makes the
// result the sorted order statistic exactly.
//
//hyperearvet:zeroalloc
func selectFloat64(a []float64, k int) float64 {
	nan := 0
	for i, v := range a {
		if math.IsNaN(v) {
			a[i], a[nan] = a[nan], a[i]
			nan++
		}
	}
	if k < nan {
		return a[k]
	}
	a, k = a[nan:], k-nan
	for len(a) > 1 {
		// Median-of-three pivot, then a Dutch-flag partition into
		// < p | == p | > p, so runs of ties cost one pass.
		p := median3(a[0], a[len(a)/2], a[len(a)-1])
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[gt], a[i] = v, a[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			a = a[:lt]
		case k >= gt:
			a, k = a[gt:], k-gt
		default:
			return p
		}
	}
	return a[0]
}

// median3 returns the median of three (non-NaN) values.
//
//hyperearvet:zeroalloc
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

//hyperearvet:zeroalloc
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// PairBeacons matches detections from two channels into per-beacon pairs.
// Two detections are considered the same beacon when their timestamps are
// within maxSkew seconds (the phone is small: inter-mic skew is below
// D/S ≈ 0.5 ms, so maxSkew of a few ms is safe). Unmatched detections are
// dropped. Results are ordered by time.
func PairBeacons(a, b []Detection, maxSkew float64) [][2]Detection {
	var out [][2]Detection
	j := 0
	for _, da := range a {
		for j < len(b) && b[j].Time < da.Time-maxSkew {
			j++
		}
		if j < len(b) && math.Abs(b[j].Time-da.Time) <= maxSkew {
			out = append(out, [2]Detection{da, b[j]})
			j++
		}
	}
	return out
}

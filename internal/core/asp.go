package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/dsp"
	"hyperear/internal/mic"
	"hyperear/internal/obs"
)

// ASPConfig holds the acoustic-preprocessing parameters.
type ASPConfig struct {
	// BandMarginHz widens the band-pass edges around the chirp band.
	BandMarginHz float64
	// FilterTaps is the FIR length of the band-pass.
	FilterTaps int
	// CalibDuration is the initial stationary window (seconds) used to
	// estimate the received beacon period, and hence the speaker↔phone
	// sampling-frequency offset. The protocol's opening hold (which in
	// practice is the tail of the direction-finding phase, when the phone
	// is already still) provides it.
	CalibDuration float64
	// MaxPairSkew is the maximum inter-mic arrival skew (seconds) for two
	// detections to be treated as the same beacon; it only needs to exceed
	// D/S ≈ 0.5 ms.
	MaxPairSkew float64
	// DisableSFOCorrection turns off period estimation (ablation); the
	// nominal period is used instead.
	DisableSFOCorrection bool
	// TemplateGain, when non-nil, shapes the matched-filter template by
	// the microphone's frequency response (see chirp.ReferenceShaped) —
	// the per-device calibration that keeps near-ultrasonic beacon timing
	// unbiased through a rolled-off capsule. Nil uses the flat template.
	TemplateGain func(freqHz float64) float64
	// Parallelism, BatchWindow and MaxBatch are ignored: the two
	// channels always detect concurrently and every correlation runs the
	// plain serial block loop (DESIGN.md §8, "Retired: the parallelism
	// budget" and "Retired: batched execution"). They remain so
	// configurations that set them keep compiling.
	Parallelism int
	BatchWindow time.Duration
	MaxBatch    int
	// Obs receives the "asp" stage span and detection/pairing counters;
	// nil disables. NewLocalizer propagates Config.Obs here.
	Obs *obs.Obs
}

// DefaultASPConfig returns sensible defaults for the paper's beacon.
func DefaultASPConfig() ASPConfig {
	return ASPConfig{
		BandMarginHz:  200,
		FilterTaps:    301,
		CalibDuration: 3.0,
		MaxPairSkew:   0.002,
	}
}

// Validate reports configuration errors.
func (c ASPConfig) Validate() error {
	switch {
	case c.BandMarginHz < 0:
		return fmt.Errorf("core: negative band margin %v", c.BandMarginHz)
	case c.FilterTaps < 31:
		return fmt.Errorf("core: band-pass taps %d too few", c.FilterTaps)
	case c.CalibDuration < 0:
		return fmt.Errorf("core: negative calibration duration %v", c.CalibDuration)
	case c.MaxPairSkew <= 0:
		return fmt.Errorf("core: non-positive pair skew %v", c.MaxPairSkew)
	}
	return nil
}

// Beacon is one chirp beacon observed on both microphones.
type Beacon struct {
	// Seq is the beacon sequence number relative to the first detected
	// beacon (assigned by rounding against the nominal period).
	Seq int
	// T1 and T2 are the arrival timestamps at Mic1 and Mic2 in seconds
	// (recording timebase), sub-sample interpolated.
	T1, T2 float64
	// SNR is the weaker of the two channels' detection SNRs.
	SNR float64
}

// TDoA returns the inter-microphone time difference t1 - t2 (the §IV-A
// measurement).
func (b Beacon) TDoA() float64 { return b.T1 - b.T2 }

// ASPResult is the acoustic preprocessing output.
type ASPResult struct {
	// Beacons are the paired detections in time order.
	Beacons []Beacon
	// PeriodEff is the estimated received beacon period in recording
	// time (equals the nominal period when SFO correction is disabled or
	// under-determined).
	PeriodEff float64
	// SFOPPM is the estimated total clock skew in parts per million:
	// (PeriodEff/Period - 1)·1e6.
	SFOPPM float64
	// CalibBeacons is how many beacons informed the period estimate.
	CalibBeacons int
}

// ASP is the acoustic signal preprocessing stage.
type ASP struct {
	cfg    ASPConfig
	source chirp.Params
	fs     float64
	det    channelDetector
	// scratch pools per-channel detection working sets (envelope,
	// candidate and timing buffers) so every locate reuses its big
	// buffers instead of reallocating second-long float slices. A pool
	// (rather than per-channel fields) keeps Process safe to call
	// concurrently.
	scratch sync.Pool
}

// channelDetector is the per-channel detection pass ASP runs on both
// microphones at once. *chirp.Detector is the only production
// implementation; tests swap in reference rules to compare whole locates.
type channelDetector interface {
	DetectIntoCtx(ctx context.Context, dst []chirp.Detection, x dsp.Samples, pre dsp.EnvelopePrefix, s *chirp.DetectScratch) ([]chirp.Detection, error)
}

// NewASP builds the stage for a beacon waveform and sampling rate.
func NewASP(source chirp.Params, fs float64, cfg ASPConfig) (*ASP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := source.Validate(); err != nil {
		return nil, err
	}
	lo := source.Low - cfg.BandMarginHz
	if lo < 50 {
		lo = 50
	}
	hi := source.High + cfg.BandMarginHz
	if hi >= fs/2 {
		hi = fs/2 - 1
	}
	bp, err := dsp.NewBandPass(lo, hi, fs, cfg.FilterTaps)
	if err != nil {
		return nil, fmt.Errorf("core: ASP band-pass: %w", err)
	}
	// The band-pass is folded into the matched-filter template
	// (ref ⊛ h) rather than applied to each second-long recording: the
	// correlation outputs are identical up to the filter's constant group
	// delay (which the detector adds back), and the per-call FFT
	// convolution over the full recording — the pipeline's largest
	// allocation — disappears.
	det, err := chirp.NewDetectorFiltered(source, fs, cfg.TemplateGain, bp.Taps())
	if err != nil {
		return nil, fmt.Errorf("core: ASP detector: %w", err)
	}
	a := &ASP{cfg: cfg, source: source, fs: fs, det: det}
	a.scratch.New = func() any { return new(chirp.DetectScratch) }
	return a, nil
}

// Process filters both channels, detects and pairs beacons, and estimates
// the received beacon period from the calibration window.
func (a *ASP) Process(rec *mic.Recording) (*ASPResult, error) {
	return a.ProcessContext(context.Background(), rec)
}

// ProcessContext is Process with cancellation: each channel's detection
// — the pipeline's dominant CPU cost — checks ctx before every
// matched-filter block, and the stage returns ctx's error instead of
// pairing partial results.
func (a *ASP) ProcessContext(ctx context.Context, rec *mic.Recording) (*ASPResult, error) {
	return a.process(ctx, rec.Channels(), [2]dsp.EnvelopePrefix{})
}

// detector returns the *chirp.Detector NewASP built, whose blocks a
// streamed session's feeds run; only tests swap det for a reference
// rule.
func (a *ASP) detector() *chirp.Detector { return a.det.(*chirp.Detector) }

// process is ProcessContext over the channels ch (ch[0] Mic1, ch[1]
// Mic2, float64 or PCM) with each channel's envelope prefix (the zero
// value on the batch path): pre[0] for Mic1, pre[1] for Mic2. Each
// channel's goroutine reads, and over PCM decodes, only what its
// detection reads.
func (a *ASP) process(ctx context.Context, ch [2]dsp.Samples, pre [2]dsp.EnvelopePrefix) (*ASPResult, error) {
	sp := a.cfg.Obs.SpanCtx(ctx, "asp")
	defer sp.End()
	if ch[0].Len() == 0 || ch[1].Len() == 0 {
		sp.AttrStr("error", "empty recording")
		return nil, fmt.Errorf("core: empty recording")
	}
	// The two channels are independent and the detector is stateless
	// after construction (the template spectrum cache is lock-protected),
	// so mic2 always detects on its own goroutine while mic1 detects on
	// the caller's, and pairing waits for both. This is the pipeline's
	// only fan-out: each channel's block loop is serial, and concurrency
	// across locates belongs to the caller (DESIGN.md §8, "Locate
	// schedule"). The band-pass lives inside the matched-filter template
	// (see NewASP), so detection runs on the raw channels directly. A
	// panic on either channel is recovered and re-raised here once both
	// have returned, so it unwinds the caller instead of killing the
	// process from a bare goroutine.
	var (
		dets    [2][]chirp.Detection
		detErrs [2]error
		panics  [2]any
		wg      sync.WaitGroup
	)
	detect := func(i int) {
		defer func() { panics[i] = recover() }()
		sc := a.scratch.Get().(*chirp.DetectScratch)
		dets[i], detErrs[i] = a.det.DetectIntoCtx(ctx, nil, ch[i], pre[i], sc)
		a.scratch.Put(sc)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		detect(1)
	}()
	detect(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if err := ctxErr(ctx); err != nil {
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	for _, err := range detErrs {
		if err != nil {
			sp.AttrStr("error", err.Error())
			return nil, err
		}
	}
	d1, d2 := dets[0], dets[1]
	a.cfg.Obs.Add(MASPDetections, uint64(len(d1)+len(d2)))
	sp.AttrInt("detections_mic1", len(d1))
	sp.AttrInt("detections_mic2", len(d2))
	pairs := chirp.PairBeacons(d1, d2, a.cfg.MaxPairSkew)
	if len(pairs) == 0 {
		sp.AttrStr("error", "no beacons on both channels")
		return nil, fmt.Errorf("core: no beacons detected on both channels")
	}

	beacons := make([]Beacon, 0, len(pairs))
	t0 := pairs[0][0].Time
	for _, p := range pairs {
		seq := int(math.Round((p[0].Time - t0) / a.source.Period))
		snr := math.Min(p[0].SNR, p[1].SNR)
		beacons = append(beacons, Beacon{Seq: seq, T1: p[0].Time, T2: p[1].Time, SNR: snr})
	}

	res := &ASPResult{
		Beacons:   beacons,
		PeriodEff: a.source.Period,
	}
	if !a.cfg.DisableSFOCorrection {
		res.PeriodEff, res.CalibBeacons = a.estimatePeriod(beacons)
	}
	res.SFOPPM = (res.PeriodEff/a.source.Period - 1) * 1e6
	a.cfg.Obs.Add(MBeaconsPaired, uint64(len(beacons)))
	a.cfg.Obs.Add(MBeaconsCalib, uint64(res.CalibBeacons))
	sp.AttrInt("beacons", len(beacons))
	sp.Attr("sfo_ppm", res.SFOPPM)
	return res, nil
}

// estimatePeriod fits arrival time against sequence number by least
// squares over the beacons inside the stationary calibration window. With
// fewer than three calibration beacons the nominal period is returned.
func (a *ASP) estimatePeriod(beacons []Beacon) (float64, int) {
	var xs, ys []float64
	limit := beacons[0].T1 + a.cfg.CalibDuration
	for _, b := range beacons {
		if b.T1 > limit {
			break
		}
		xs = append(xs, float64(b.Seq))
		ys = append(ys, b.T1)
	}
	if len(xs) < 3 {
		return a.source.Period, len(xs)
	}
	slope, ok := olsSlope(xs, ys)
	if !ok || math.Abs(slope/a.source.Period-1) > 0.001 {
		// A >1000 ppm estimate means the fit latched onto something other
		// than clock skew; fall back to nominal.
		return a.source.Period, len(xs)
	}
	return slope, len(xs)
}

// olsSlope returns the ordinary-least-squares slope of y against x.
func olsSlope(x, y []float64) (float64, bool) {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}

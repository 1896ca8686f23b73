package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"hyperear/internal/chirp"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/obs"
)

// ErrNoUsableSlides is returned when every segmented movement was rejected
// by the PDE quality gates or failed triangulation.
var ErrNoUsableSlides = errors.New("core: no usable slides in session")

// ctxErr returns a wrapped cancellation error when ctx is done, nil
// otherwise. The wrap keeps errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) working for callers (a server
// shedding a dead client distinguishes them from pipeline failures).
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("core: pipeline canceled: %w", context.Cause(ctx))
	default:
		return nil
	}
}

// Config configures a Localizer.
type Config struct {
	// Source is the beacon waveform the speaker plays.
	Source chirp.Params
	// SampleRate is the recording rate in Hz.
	SampleRate float64
	// MicSeparation is the phone's inter-mic distance D in meters.
	MicSeparation float64
	// SpeedOfSound in m/s.
	SpeedOfSound float64
	// ASP, MSP, PDE, TTL configure the individual stages; zero values are
	// replaced by defaults.
	ASP ASPConfig
	MSP MSPConfig
	PDE PDEConfig
	TTL TTLConfig
	// DisableDriftCorrection integrates raw velocity without the eq. (4)
	// linear model (ablation).
	DisableDriftCorrection bool
	// MaxVerticalOffset bounds the phone-to-speaker height difference the
	// 3D projection will infer (meters); 0 selects the 1.5 m default. See
	// ProjectDistanceClamped.
	MaxVerticalOffset float64
	// Parallelism is ignored: a locate always detects its two channels
	// concurrently and runs everything else serially (DESIGN.md §8,
	// "Retired: the parallelism budget"). It remains so configurations
	// that set it keep compiling.
	Parallelism int
	// Obs is the observability hook: stage spans, reason-coded counters,
	// and duration histograms flow through it (see internal/obs and
	// DESIGN.md "Observability"). Nil disables everything at zero cost;
	// it is propagated into the ASP/MSP/PDE stage configs by
	// NewLocalizer.
	Obs *obs.Obs
}

// DefaultConfig returns a configuration for the given phone geometry.
func DefaultConfig(source chirp.Params, sampleRate, micSeparation float64) Config {
	ttl := DefaultTTLConfig()
	ttl.MicSeparation = micSeparation
	return Config{
		Source:        source,
		SampleRate:    sampleRate,
		MicSeparation: micSeparation,
		SpeedOfSound:  geom.SpeedOfSound,
		ASP:           DefaultASPConfig(),
		MSP:           DefaultMSPConfig(),
		PDE:           DefaultPDEConfig(),
		TTL:           ttl,
	}
}

// Localizer runs the full HyperEar pipeline on recorded sessions.
type Localizer struct {
	cfg Config
	asp *ASP
}

// NewLocalizer validates the configuration and prepares the stages.
func NewLocalizer(cfg Config) (*Localizer, error) {
	// The !(x > 0) form also rejects NaN, which every ordered comparison
	// reports false for — a plain `<= 0` check would wave NaN through and
	// let it poison the band-pass design and all downstream timestamps.
	if !(cfg.SampleRate > 0) || math.IsInf(cfg.SampleRate, 0) {
		return nil, fmt.Errorf("core: sample rate %v Hz invalid (need a finite rate > 0)", cfg.SampleRate)
	}
	if err := cfg.Source.Validate(); err != nil {
		return nil, fmt.Errorf("core: beacon source: %w", err)
	}
	if cfg.MicSeparation <= 0 {
		return nil, fmt.Errorf("core: mic separation %v <= 0", cfg.MicSeparation)
	}
	if cfg.SpeedOfSound == 0 {
		cfg.SpeedOfSound = geom.SpeedOfSound
	} else if !(cfg.SpeedOfSound > 0) || math.IsInf(cfg.SpeedOfSound, 0) {
		// Same !(x > 0) form as SampleRate: a negative, NaN, or infinite
		// speed flows straight into every TDoA→distance conversion.
		return nil, fmt.Errorf("core: speed of sound %v m/s invalid (need a finite speed > 0, or 0 for the default)", cfg.SpeedOfSound)
	}
	if cfg.MSP == (MSPConfig{}) {
		cfg.MSP = DefaultMSPConfig()
	}
	if cfg.PDE == (PDEConfig{}) {
		cfg.PDE = DefaultPDEConfig()
	}
	if cfg.TTL == (TTLConfig{}) {
		cfg.TTL = DefaultTTLConfig()
	}
	cfg.TTL.MicSeparation = cfg.MicSeparation
	cfg.TTL.SpeedOfSound = cfg.SpeedOfSound
	if cfg.ASP.FilterTaps == 0 {
		// Replace a zero stage config with the defaults, but carry over
		// the fields callers set independently of the filter design.
		gain := cfg.ASP.TemplateGain
		cfg.ASP = DefaultASPConfig()
		cfg.ASP.TemplateGain = gain
	}
	// One hook drives every stage; set after defaulting so a zero stage
	// config still compares equal to its zero value above.
	cfg.ASP.Obs = cfg.Obs
	cfg.MSP.Obs = cfg.Obs
	cfg.PDE.Obs = cfg.Obs
	asp, err := NewASP(cfg.Source, cfg.SampleRate, cfg.ASP)
	if err != nil {
		return nil, err
	}
	if err := cfg.MSP.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.TTL.Validate(); err != nil {
		return nil, err
	}
	return &Localizer{cfg: cfg, asp: asp}, nil
}

// Result2D is the output of a 2D localization session.
type Result2D struct {
	// Pos is the aggregated speaker estimate in the phone's start body
	// frame (x = perpendicular/in-direction axis, y = slide axis).
	Pos geom.Vec2
	// L is the aggregated perpendicular distance from the slide line.
	L float64
	// Fixes are the accepted per-slide fixes.
	Fixes []SlideFix
	// Movements are all PDE movement estimates (including rejected ones),
	// for diagnostics.
	Movements []SlideEstimate
	// Diagnostics records, reason-coded, every movement that produced no
	// fix (PDE gate rejections, missing anchor beacons, triangulation
	// failures). Every accepted fix plus every Diagnostics entry plus
	// every stature movement accounts for one element of Movements.
	Diagnostics []SlideError
	// ASP echoes the acoustic preprocessing result.
	ASP *ASPResult
}

// Result3D is the output of a two-stature 3D session.
type Result3D struct {
	// ProjectedDist is the estimated horizontal distance to the speaker
	// (the paper's L*).
	ProjectedDist float64
	// ProjectedPos is the estimated speaker position on the floor map in
	// the start body frame.
	ProjectedPos geom.Vec2
	// L1 and L2 are the aggregated slant distances at the two statures.
	L1, L2 float64
	// H is the estimated stature change.
	H float64
	// Beta is the eq. (7) angle in radians.
	Beta float64
	// Lower holds the per-stature slide fixes: Lower[0] before the
	// stature change, Lower[1] after.
	Fixes [2][]SlideFix
	// Movements are all PDE movement estimates.
	Movements []SlideEstimate
	// Diagnostics records, reason-coded, every movement that produced no
	// fix (see Result2D.Diagnostics).
	Diagnostics []SlideError
	// ASP echoes the acoustic preprocessing result.
	ASP *ASPResult
}

// Preprocess runs only the acoustic stage on a recording — enough for
// direction finding and LoS assessment without a full localization.
func (l *Localizer) Preprocess(rec *mic.Recording) (*ASPResult, error) {
	return l.asp.Process(rec)
}

// MicSeparation returns the configured inter-mic distance D.
func (l *Localizer) MicSeparation() float64 { return l.cfg.MicSeparation }

// SpeedOfSound returns the configured sound speed.
func (l *Localizer) SpeedOfSound() float64 { return l.cfg.SpeedOfSound }

// analyzeSession runs ASP, MSP, and PDE over one session, working through
// the borrowed Scratch s (the MSPResult it returns aliases s and must not
// outlive the borrow). Cancellation is checked between stages and between
// movement estimates so an abandoned request (dead client, expired
// deadline) stops burning CPU mid-pipeline instead of completing a result
// nobody will read.
func (l *Localizer) analyzeSession(ctx context.Context, ch [2]dsp.Samples, tr *imu.Trace, pre [2]dsp.EnvelopePrefix, s *Scratch) (*ASPResult, *MSPResult, []SlideEstimate, error) {
	aspRes, err := l.asp.process(ctx, ch, pre)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, nil, err
	}
	msp, err := preprocessIMU(ctx, tr, l.cfg.MSP, s)
	if err != nil {
		return nil, nil, nil, err
	}
	sp := l.cfg.Obs.SpanCtx(ctx, "pde")
	ests := make([]SlideEstimate, len(msp.Segments))
	for i, seg := range msp.Segments {
		if ctx.Err() != nil {
			break
		}
		est := estimateMovement(msp, seg, l.cfg.PDE, &s.pde)
		if l.cfg.DisableDriftCorrection {
			est = l.reestimateWithoutCorrection(msp, est)
		}
		ests[i] = est
	}
	sp.AttrInt("segments", len(msp.Segments))
	sp.End()
	if err := ctxErr(ctx); err != nil {
		return nil, nil, nil, err
	}
	return aspRes, msp, ests, nil
}

// reestimateWithoutCorrection replaces the drift-corrected displacement by
// a raw double integration (the ablation baseline).
func (l *Localizer) reestimateWithoutCorrection(m *MSPResult, est SlideEstimate) SlideEstimate {
	s := est.Segment
	dt := 1 / m.Fs
	raw := func(a []float64) float64 {
		var v, d float64
		for _, x := range a[s.Start:s.End] {
			v += x * dt
			d += v * dt
		}
		return d
	}
	est.DispY = raw(m.AccelY)
	est.DispZ = raw(m.AccelZ)
	return est
}

// SlideError records, reason-coded, why one segmented movement produced
// no localization fix.
type SlideError struct {
	// Index is the movement's position in Result2D/Result3D.Movements.
	Index int
	// Reason is the machine-readable reason code (the Reason* constants).
	Reason string
	// Err is the underlying error, when one exists (anchor and
	// triangulation failures); nil for PDE gate rejections.
	Err error
}

// Error implements the error interface.
func (e SlideError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("movement %d: %s: %v", e.Index, e.Reason, e.Err)
	}
	return fmt.Sprintf("movement %d: %s", e.Index, e.Reason)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e SlideError) Unwrap() error { return e.Err }

// noUsableSlides wraps ErrNoUsableSlides with the per-reason tally of a
// fully rejected session, so the error itself says why every movement
// was dropped.
func noUsableSlides(nMovements int, diags []SlideError) error {
	if len(diags) == 0 {
		return fmt.Errorf("%w (%d movements, none was a usable slide)", ErrNoUsableSlides, nMovements)
	}
	tally := make(map[string]int)
	for _, d := range diags {
		tally[d.Reason]++
	}
	reasons := make([]string, 0, len(tally))
	for r := range tally {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	parts := make([]string, len(reasons))
	for i, r := range reasons {
		parts[i] = fmt.Sprintf("%d×%s", tally[r], r)
	}
	return fmt.Errorf("%w (%d movements rejected: %s)", ErrNoUsableSlides, nMovements, strings.Join(parts, ", "))
}

// localizeSlides turns accepted slide movements into fixes, dead-reckoning
// the phone's rest position along the body y axis across slides and
// correcting each anchor's rotation-induced TDoA error from the gyro.
// Every movement that yields no fix is recorded as a reason-coded
// SlideError (stature changes excepted — they are not failures, only
// tallied in the metrics), and the per-reason counters it emits account
// for every element of ests exactly once. A canceled context aborts the
// loop between movements with a non-nil error.
func (l *Localizer) localizeSlides(ctx context.Context, aspRes *ASPResult, msp *MSPResult, ests []SlideEstimate) ([]SlideFix, []SlideError, error) {
	o := l.cfg.Obs
	var fixes []SlideFix
	var diags []SlideError
	y := 0.0
	gap := l.cfg.TTL.MaxAnchorGap
	for i, est := range ests {
		if err := ctxErr(ctx); err != nil {
			return nil, nil, err
		}
		switch est.Kind {
		case KindSlide:
			before, after, err := anchorBeacons(aspRes.Beacons, est.StartTime, est.EndTime, gap, aspRes.PeriodEff)
			if err != nil {
				diags = append(diags, SlideError{Index: i, Reason: ReasonNoAnchor, Err: err})
				o.Inc(MSlideRejectedPrefix + ReasonNoAnchor)
				y += est.DispY
				continue
			}
			yawB := msp.meanYawDev(est.StartTime-gap, est.StartTime)
			yawA := msp.meanYawDev(est.EndTime, est.EndTime+gap)
			fix, err := LocalizeSlide(before, after, aspRes.PeriodEff, est.DispY, y, yawB, yawA, l.cfg.TTL)
			if err != nil {
				diags = append(diags, SlideError{Index: i, Reason: ReasonTriangulation, Err: err})
				o.Inc(MSlideRejectedPrefix + ReasonTriangulation)
			} else {
				fix.Index = i
				fixes = append(fixes, fix)
				o.Inc(MSlideAccepted)
			}
			y += est.DispY
		case KindStature:
			// Vertical moves do not change the body-y dead reckoning.
			o.Inc(MSlideRejectedPrefix + ReasonStature)
		default:
			// Rejected movements still move the phone.
			reason := est.RejectCode
			if reason == "" {
				reason = ReasonPDEAmbiguous
			}
			diags = append(diags, SlideError{Index: i, Reason: reason})
			o.Inc(MSlideRejectedPrefix + reason)
			y += est.DispY
		}
	}
	return fixes, diags, nil
}

// Locate2D runs the pipeline on a single-stature session and returns the
// aggregated 2D fix.
func (l *Localizer) Locate2D(rec *mic.Recording, tr *imu.Trace) (*Result2D, error) {
	return l.Locate2DContext(context.Background(), rec, tr)
}

// Locate2DContext is Locate2D with cancellation: when ctx is canceled or
// its deadline passes, the pipeline aborts at the next stage boundary
// (and between ASP's matched-filter blocks and between movements) and
// returns an error wrapping ctx's cause.
func (l *Localizer) Locate2DContext(ctx context.Context, rec *mic.Recording, tr *imu.Trace) (*Result2D, error) {
	return l.Locate2DStreamed(ctx, rec.Channels(), tr, [2]dsp.EnvelopePrefix{})
}

// NewEnvelopeFeed returns a feed that runs ASP's matched-filter blocks
// over one channel as its audio arrives. A streamed session keeps one
// per channel and hands their Prefixes to Locate2DStreamed or
// Locate3DStreamed.
func (l *Localizer) NewEnvelopeFeed() *dsp.EnvelopeFeed { return l.asp.detector().NewEnvelopeFeed() }

// NewStreamDetector returns a block-final beacon detector over ASP's
// matched-filter blocks (chirp.StreamDetector): it reports a streamed
// channel's beacons as their blocks become final, and its Prefix is that
// channel's NewEnvelopeFeed prefix, so a streamed session runs one set of
// blocks per channel for both feedback and locate.
func (l *Localizer) NewStreamDetector() *chirp.StreamDetector {
	return l.asp.detector().NewStreamDetector()
}

// Locate2DStreamed is Locate2DContext over a recording's channels ch
// (ch[0] Mic1, ch[1] Mic2) that were pushed, as they arrived, through
// feeds from this Localizer's NewEnvelopeFeed: pre[0] and pre[1] are the
// Mic1 and Mic2 feeds' Prefixes, and ASP runs only the matched-filter
// blocks after them. Over PCM channels (dsp.Stereo16Samples) ASP decodes
// only the samples those blocks and its timing windows read. The result
// is the same bits as Locate2DContext's over the decoded recording; a
// prefix from any other feed is ignored.
func (l *Localizer) Locate2DStreamed(ctx context.Context, ch [2]dsp.Samples, tr *imu.Trace, pre [2]dsp.EnvelopePrefix) (*Result2D, error) {
	sp := l.cfg.Obs.SpanCtx(ctx, "locate2d")
	defer sp.End()
	scr := getScratch()
	defer putScratch(scr)
	aspRes, msp, ests, err := l.analyzeSession(ctx, ch, tr, pre, scr)
	if err != nil {
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	tsp := l.cfg.Obs.SpanCtx(ctx, "ttl")
	fixes, diags, err := l.localizeSlides(ctx, aspRes, msp, ests)
	if err != nil {
		tsp.End()
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	tsp.AttrInt("movements", len(ests))
	tsp.AttrInt("fixes", len(fixes))
	tsp.AttrInt("rejected", len(diags))
	tsp.End()
	if len(fixes) == 0 {
		err := noUsableSlides(len(ests), diags)
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	ls := make([]float64, len(fixes))
	xs := make([]float64, len(fixes))
	ys := make([]float64, len(fixes))
	for i, f := range fixes {
		ls[i] = f.L
		xs[i] = f.Pos.X
		ys[i] = f.Pos.Y
	}
	sp.AttrInt("fixes", len(fixes))
	sp.Attr("distance_m", aggregate(ls))
	return &Result2D{
		Pos:         geom.Vec2{X: aggregate(xs), Y: aggregate(ys)},
		L:           aggregate(ls),
		Fixes:       fixes,
		Movements:   ests,
		Diagnostics: diags,
		ASP:         aspRes,
	}, nil
}

// Locate3D runs the pipeline on a two-stature session: slides before the
// stature change give L1, slides after give L2, and the stature movement
// itself gives H; eq. (7) projects the speaker onto the floor.
func (l *Localizer) Locate3D(rec *mic.Recording, tr *imu.Trace) (*Result3D, error) {
	return l.Locate3DContext(context.Background(), rec, tr)
}

// Locate3DContext is Locate3D with cancellation (see Locate2DContext).
func (l *Localizer) Locate3DContext(ctx context.Context, rec *mic.Recording, tr *imu.Trace) (*Result3D, error) {
	return l.Locate3DStreamed(ctx, rec.Channels(), tr, [2]dsp.EnvelopePrefix{})
}

// Locate3DStreamed is Locate3DContext reusing the channels' streamed
// matched-filter blocks (see Locate2DStreamed).
func (l *Localizer) Locate3DStreamed(ctx context.Context, ch [2]dsp.Samples, tr *imu.Trace, pre [2]dsp.EnvelopePrefix) (*Result3D, error) {
	sp := l.cfg.Obs.SpanCtx(ctx, "locate3d")
	defer sp.End()
	scr := getScratch()
	defer putScratch(scr)
	aspRes, msp, ests, err := l.analyzeSession(ctx, ch, tr, pre, scr)
	if err != nil {
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	// Find the stature change.
	statureIdx := -1
	var h float64
	for i, est := range ests {
		if est.Kind == KindStature {
			statureIdx = i
			h = est.DispZ
			break
		}
	}
	if statureIdx < 0 {
		return nil, fmt.Errorf("core: no stature change detected in 3D session")
	}

	tsp := l.cfg.Obs.SpanCtx(ctx, "ttl")
	fixes, diags, err := l.localizeSlides(ctx, aspRes, msp, ests)
	if err != nil {
		tsp.End()
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	tsp.AttrInt("movements", len(ests))
	tsp.AttrInt("fixes", len(fixes))
	tsp.AttrInt("rejected", len(diags))
	tsp.End()
	if len(fixes) == 0 {
		err := noUsableSlides(len(ests), diags)
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	// Fixes come in movement order: those of slides before the stature
	// movement give L1, the rest L2.
	n := sort.Search(len(fixes), func(k int) bool { return fixes[k].Index > statureIdx })
	parts := [2][]SlideFix{fixes[:n], fixes[n:]}
	var l1s, l2s, ys1 []float64
	if len(parts[0]) == 0 || len(parts[1]) == 0 {
		return nil, fmt.Errorf("core: 3D session needs usable slides on both statures (%d/%d): %w",
			len(parts[0]), len(parts[1]), ErrNoUsableSlides)
	}
	for _, f := range parts[0] {
		l1s = append(l1s, f.L)
		ys1 = append(ys1, f.Pos.Y)
	}
	for _, f := range parts[1] {
		l2s = append(l2s, f.L)
	}
	l1 := aggregate(l1s)
	l2 := aggregate(l2s)

	lStar, err := ProjectDistanceClamped(l1, l2, h, l.cfg.MaxVerticalOffset)
	if err != nil {
		// Degenerate inputs (zero stature change): fall back to treating
		// the slant distance as horizontal.
		lStar = math.Min(l1, l2)
	}
	// Projected position: keep the along-axis estimate from stature 1,
	// scale the perpendicular axis to the projected distance.
	pos := geom.Vec2{X: lStar, Y: aggregate(ys1)}
	sp.AttrInt("fixes", len(fixes))
	sp.Attr("distance_m", lStar)
	return &Result3D{
		ProjectedDist: lStar,
		ProjectedPos:  pos,
		L1:            l1,
		L2:            l2,
		H:             h,
		Beta:          betaOf(l1, l2, h),
		Fixes:         parts,
		Movements:     ests,
		Diagnostics:   diags,
		ASP:           aspRes,
	}, nil
}

func betaOf(l1, l2, h float64) float64 {
	h = math.Abs(h)
	if h == 0 || l1 == 0 {
		return math.NaN()
	}
	c := (h*h + l1*l1 - l2*l2) / (2 * h * l1)
	if c < -1 || c > 1 {
		return math.NaN()
	}
	return math.Acos(c)
}

package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"hyperear/internal/chirp"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sim"
)

// runScenario renders a scenario and runs Locate2D, returning the world
// position error and the session for inspection.
func locate2DScenario(t *testing.T, sc sim.Scenario) (float64, *Result2D, *sim.Session) {
	t.Helper()
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	res, err := loc.Locate2D(s.Recording, s.IMU)
	if err != nil {
		t.Fatal(err)
	}
	// Convert the body-frame estimate to world coordinates with the true
	// start pose (the phone defines its own map origin).
	est := bodyToWorld(res.Pos, sc.PhoneStart, s.TrueYaw-geom.Radians(sc.Protocol.YawErrDeg))
	errDist := est.Sub(sc.SpeakerPos.XY()).Norm()
	return errDist, res, s
}

// bodyToWorld maps a start-body-frame 2D estimate to world XY. The body
// frame the localizer reports in has x toward the speaker (believed
// broadside direction) and y along the slide axis; believedYaw is the yaw
// the system believes it holds (true yaw minus the unknown residual
// direction-finding error).
func bodyToWorld(p geom.Vec2, start geom.Vec3, believedYaw float64) geom.Vec2 {
	dir := p.Rotate(believedYaw)
	return start.XY().Add(dir)
}

func ruler2DScenario(dist float64, seed int64) sim.Scenario {
	phone := mic.GalaxyS4()
	return sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          phone,
		Source:         chirp.Default(),
		SpeakerPos:     geom.Vec3{X: 8, Y: 6, Z: 1.2},
		SpeakerSkewPPM: 25,
		PhoneStart:     geom.Vec3{X: 8 - dist, Y: 6, Z: 1.2},
		Protocol: sim.Protocol{
			SlideDist: 0.55,
			SlideDur:  1.0,
			HoldDur:   0.45,
			Slides:    5,
			Mode:      sim.ModeRuler,
		},
		IMU:   imu.DefaultConfig(),
		Noise: room.WhiteNoise{},
		SNRdB: 18,
		Seed:  seed,
	}
}

func TestNewLocalizerValidation(t *testing.T) {
	cfg := DefaultConfig(chirp.Default(), 44100, 0.1366)
	if _, err := NewLocalizer(cfg); err != nil {
		t.Fatalf("valid config: %v", err)
	}
	cfg.MicSeparation = 0
	if _, err := NewLocalizer(cfg); err == nil {
		t.Error("zero separation should error")
	}
	cfg = DefaultConfig(chirp.Params{}, 44100, 0.1366)
	if _, err := NewLocalizer(cfg); err == nil {
		t.Error("invalid source should error")
	}
}

// TestNewLocalizerRejectsBadSampleRate is the regression test for the
// missing SampleRate validation: zero and negative rates previously
// surfaced as a cryptic band-pass design error, and a NaN rate was
// accepted outright (every ordered comparison on NaN is false, so it
// sailed past the downstream `fs < 2.2·High` and filter-edge checks) and
// produced NaN timestamps at runtime. All must now fail construction with
// an error that names the sample rate.
func TestNewLocalizerRejectsBadSampleRate(t *testing.T) {
	for _, fs := range []float64{0, -44100, math.NaN(), math.Inf(1)} {
		cfg := DefaultConfig(chirp.Default(), fs, 0.1366)
		_, err := NewLocalizer(cfg)
		if err == nil {
			t.Errorf("SampleRate=%v: construction succeeded, want error", fs)
			continue
		}
		if !strings.Contains(err.Error(), "sample rate") {
			t.Errorf("SampleRate=%v: error %q does not name the sample rate", fs, err)
		}
	}
}

// TestNewLocalizerSpeedOfSoundValidation is the regression test for the
// `== 0`-only defaulting bug: negative, NaN, and Inf speeds flowed
// straight into every TDoA→distance conversion. Zero still selects the
// default, any other non-finite/non-positive value must fail
// construction with an error naming the speed of sound.
func TestNewLocalizerSpeedOfSoundValidation(t *testing.T) {
	cases := []struct {
		speed float64
		ok    bool
	}{
		{0, true}, // defaulted to geom.SpeedOfSound
		{346.0, true},
		{-343, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(chirp.Default(), 44100, 0.1366)
		cfg.SpeedOfSound = tc.speed
		loc, err := NewLocalizer(cfg)
		if tc.ok {
			if err != nil {
				t.Errorf("SpeedOfSound=%v: construction failed: %v", tc.speed, err)
			} else if tc.speed == 0 && loc.cfg.SpeedOfSound != geom.SpeedOfSound {
				t.Errorf("SpeedOfSound=0 defaulted to %v, want %v", loc.cfg.SpeedOfSound, geom.SpeedOfSound)
			} else if tc.speed != 0 && loc.cfg.SpeedOfSound != tc.speed {
				t.Errorf("SpeedOfSound=%v overwritten to %v", tc.speed, loc.cfg.SpeedOfSound)
			}
			continue
		}
		if err == nil {
			t.Errorf("SpeedOfSound=%v: construction succeeded, want error", tc.speed)
			continue
		}
		if !strings.Contains(err.Error(), "speed of sound") {
			t.Errorf("SpeedOfSound=%v: error %q does not name the speed of sound", tc.speed, err)
		}
	}
}

// replayDetector is a channelDetector that returns detections computed
// beforehand, keyed by the address of the channel's first sample.
type replayDetector map[*float64][]chirp.Detection

func (r replayDetector) DetectIntoCtx(_ context.Context, dst []chirp.Detection, x dsp.Samples, _ dsp.EnvelopePrefix, _ *chirp.DetectScratch) ([]chirp.Detection, error) {
	return append(dst[:0], r[&floats(x)[0]]...), nil
}

// floats returns every sample of x as float64: x itself when it holds
// float64 samples, a decoded copy when it holds PCM.
func floats(x dsp.Samples) []float64 {
	var buf []float64
	w, _ := x.Window(&buf, 0, x.Len())
	return w
}

// TestLocalizerSerialMatchesParallel pins serial == parallel: ASP detects
// its two channels concurrently, and its beacons and the Locate2D fix
// must equal, bit for bit, a serial reference that detects mic1 and then
// mic2 on the test goroutine with the same detector, pairs them with
// chirp.PairBeacons, and feeds those detections to the rest of the
// pipeline.
func TestLocalizerSerialMatchesParallel(t *testing.T) {
	sc := ruler2DScenario(4, 107)
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recording
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	got, err := loc.Locate2D(rec, s.IMU)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	d1, err := loc.asp.det.DetectIntoCtx(ctx, nil, dsp.FloatSamples(rec.Mic1, 0), dsp.EnvelopePrefix{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loc.asp.det.DetectIntoCtx(ctx, nil, dsp.FloatSamples(rec.Mic2, 0), dsp.EnvelopePrefix{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := chirp.PairBeacons(d1, d2, loc.cfg.ASP.MaxPairSkew)
	loc.asp.det = replayDetector{&rec.Mic1[0]: d1, &rec.Mic2[0]: d2}
	want, err := loc.Locate2D(rec, s.IMU)
	if err != nil {
		t.Fatal(err)
	}

	eq := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: concurrent %v != serial %v", name, a, b)
		}
	}
	if len(got.ASP.Beacons) != len(pairs) {
		t.Fatalf("concurrent %d beacons, serial %d pairs", len(got.ASP.Beacons), len(pairs))
	}
	for i, p := range pairs {
		b := got.ASP.Beacons[i]
		eq("beacon T1", b.T1, p[0].Time)
		eq("beacon T2", b.T2, p[1].Time)
		eq("beacon SNR", b.SNR, math.Min(p[0].SNR, p[1].SNR))
	}
	eq("Pos.X", got.Pos.X, want.Pos.X)
	eq("Pos.Y", got.Pos.Y, want.Pos.Y)
	eq("L", got.L, want.L)
	if len(got.Fixes) != len(want.Fixes) || len(got.Movements) != len(want.Movements) {
		t.Fatalf("concurrent %d fixes/%d movements vs serial %d/%d",
			len(got.Fixes), len(got.Movements), len(want.Fixes), len(want.Movements))
	}
	for i := range want.Fixes {
		eq("fix L", got.Fixes[i].L, want.Fixes[i].L)
		eq("fix Pos.X", got.Fixes[i].Pos.X, want.Fixes[i].Pos.X)
		eq("fix Pos.Y", got.Fixes[i].Pos.Y, want.Fixes[i].Pos.Y)
	}
}

// TestLocate2DRulerAccuracy is the headline end-to-end check: a 5-slide
// ruler session at 5 m must localize to within a few tens of centimeters
// (the paper reports ≈10 cm mean at 5 m on the ruler; we allow a generous
// envelope for a single seeded trial).
func TestLocate2DRulerAccuracy(t *testing.T) {
	errDist, res, _ := locate2DScenario(t, ruler2DScenario(5, 101))
	if len(res.Fixes) < 3 {
		t.Fatalf("fixes = %d, want ≥3 of 5 slides", len(res.Fixes))
	}
	if errDist > 0.40 {
		t.Errorf("2D error at 5 m = %.3f m, want < 0.40 m (L=%v)", errDist, res.L)
	}
	// The perpendicular distance estimate must be close to 5 m.
	if math.Abs(res.L-5) > 0.40 {
		t.Errorf("L = %v, want ≈5", res.L)
	}
}

func TestLocate2DNearRange(t *testing.T) {
	errDist, _, _ := locate2DScenario(t, ruler2DScenario(2, 102))
	if errDist > 0.15 {
		t.Errorf("2D error at 2 m = %.3f m, want < 0.15 m", errDist)
	}
}

// TestLocate2DSFOCorrectionMatters is the SFO ablation: with a 25 ppm
// speaker skew, disabling SFO correction should typically worsen the
// error. Averaged over seeds to be robust.
func TestLocate2DSFOCorrectionMatters(t *testing.T) {
	var with, without float64
	seeds := []int64{11, 12, 13}
	for _, seed := range seeds {
		sc := ruler2DScenario(5, seed)
		sc.SpeakerSkewPPM = 60
		s, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		run := func(disable bool) float64 {
			cfg := DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation)
			cfg.ASP.DisableSFOCorrection = disable
			loc, err := NewLocalizer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := loc.Locate2D(s.Recording, s.IMU)
			if err != nil {
				t.Fatal(err)
			}
			est := bodyToWorld(res.Pos, sc.PhoneStart, s.TrueYaw)
			return est.Sub(sc.SpeakerPos.XY()).Norm()
		}
		with += run(false)
		without += run(true)
	}
	if with >= without {
		t.Errorf("SFO correction should reduce mean error: with=%.3f without=%.3f",
			with/float64(len(seeds)), without/float64(len(seeds)))
	}
}

func TestLocate2DShortSlidesRejectedByGate(t *testing.T) {
	sc := ruler2DScenario(5, 103)
	sc.Protocol.SlideDist = 0.25
	sc.Protocol.SlideDur = 0.6
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loc.Locate2D(s.Recording, s.IMU); !errors.Is(err, ErrNoUsableSlides) {
		t.Errorf("25 cm slides should be gated out, got %v", err)
	}
	// With the gate disabled the session localizes (less accurately).
	cfg := DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation)
	cfg.PDE.MinSlideDist = 0
	loc, err = NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loc.Locate2D(s.Recording, s.IMU); err != nil {
		t.Errorf("ungated short slides should localize: %v", err)
	}
}

// twoStatureScenario is the 3D protocol: 4 slides at one stature, a
// 0.5 m stature change, 4 slides at the second stature.
func twoStatureScenario() sim.Scenario {
	phone := mic.GalaxyS4()
	return sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          phone,
		Source:         chirp.Default(),
		SpeakerPos:     geom.Vec3{X: 9, Y: 6, Z: 0.5}, // speaker on a low tripod
		SpeakerSkewPPM: 25,
		PhoneStart:     geom.Vec3{X: 4, Y: 6, Z: 1.3},
		Protocol: sim.Protocol{
			SlideDist:     0.55,
			SlideDur:      1.0,
			HoldDur:       0.45,
			Slides:        8,
			Mode:          sim.ModeRuler,
			StatureChange: -0.5,
		},
		IMU:   imu.DefaultConfig(),
		Noise: room.WhiteNoise{},
		SNRdB: 18,
		Seed:  104,
	}
}

// TestLocate3DTwoStature runs the full 3D protocol.
func TestLocate3DTwoStature(t *testing.T) {
	sc := twoStatureScenario()
	phone := sc.Phone
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := NewLocalizer(DefaultConfig(sc.Source, phone.SampleRate, phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	res, err := loc.Locate3D(s.Recording, s.IMU)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H+0.5) > 0.06 {
		t.Errorf("H = %v, want ≈-0.5", res.H)
	}
	trueProj := sc.SpeakerPos.Sub(sc.PhoneStart).XY().Norm()
	if math.Abs(res.ProjectedDist-trueProj) > 0.5 {
		t.Errorf("projected distance = %v, want ≈%v (L1=%v L2=%v)",
			res.ProjectedDist, trueProj, res.L1, res.L2)
	}
	if len(res.Fixes[0]) == 0 || len(res.Fixes[1]) == 0 {
		t.Errorf("fixes per stature = %d/%d", len(res.Fixes[0]), len(res.Fixes[1]))
	}
}

// TestLocate3DSplitsFixesByMovement: a slide before the stature change
// whose triangulation fails must not move the first post-stature fix
// into Fixes[0]. Shifting both channels' detections in the rest window
// between the last pre-stature slide and the stature change by 5 ms
// makes that slide's hyperbolas invalid; Fixes[0] must then be the
// unperturbed stature-1 fixes without it, and Fixes[1] the unperturbed
// run's, bit for bit.
func TestLocate3DSplitsFixesByMovement(t *testing.T) {
	sc := twoStatureScenario()
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recording
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d1, err := loc.asp.det.DetectIntoCtx(ctx, nil, dsp.FloatSamples(rec.Mic1, 0), dsp.EnvelopePrefix{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loc.asp.det.DetectIntoCtx(ctx, nil, dsp.FloatSamples(rec.Mic2, 0), dsp.EnvelopePrefix{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	loc.asp.det = replayDetector{&rec.Mic1[0]: d1, &rec.Mic2[0]: d2}
	want, err := loc.Locate3D(rec, s.IMU)
	if err != nil {
		t.Fatal(err)
	}
	stature, last := -1, -1
	for i, m := range want.Movements {
		if m.Kind == KindStature {
			stature = i
			break
		}
		if m.Kind == KindSlide {
			last = i
		}
	}
	if stature < 0 || last < 0 {
		t.Fatalf("no slide before a stature change in %d movements", len(want.Movements))
	}
	for _, d := range want.Diagnostics {
		if d.Index == last {
			t.Fatalf("unperturbed movement %d already failed: %v", last, d)
		}
	}

	// Shift whole beacons, both channels alike, so pairing is unchanged.
	moved := map[uint64]bool{}
	lo, hi := want.Movements[last].EndTime, want.Movements[stature].StartTime
	for _, b := range want.ASP.Beacons {
		if b.T1 >= lo && b.T1 <= hi {
			moved[math.Float64bits(b.T1)] = true
			moved[math.Float64bits(b.T2)] = true
		}
	}
	shift := func(d []chirp.Detection) []chirp.Detection {
		out := append([]chirp.Detection(nil), d...)
		for i := range out {
			if moved[math.Float64bits(out[i].Time)] {
				out[i].Time += 0.005
			}
		}
		return out
	}
	loc.asp.det = replayDetector{&rec.Mic1[0]: shift(d1), &rec.Mic2[0]: shift(d2)}
	got, err := loc.Locate3D(rec, s.IMU)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, d := range got.Diagnostics {
		failed = failed || (d.Index == last && d.Reason == ReasonTriangulation)
	}
	if !failed {
		t.Fatalf("shifting %d beacons after movement %d did not fail its triangulation: %v", len(moved)/2, last, got.Diagnostics)
	}
	sameFixes := func(name string, got, want []SlideFix) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s holds %d fixes, want %d", name, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			for _, v := range [][2]float64{{g.Pos.X, w.Pos.X}, {g.Pos.Y, w.Pos.Y}, {g.L, w.L}, {g.DPrime, w.DPrime}, {g.Aug1, w.Aug1}, {g.Aug2, w.Aug2}, {g.CenterY, w.CenterY}} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) || g.N != w.N {
					t.Fatalf("%s[%d] = %+v, want %+v", name, i, g, w)
				}
			}
		}
	}
	sameFixes("Fixes[0]", got.Fixes[0], want.Fixes[0][:len(want.Fixes[0])-1])
	sameFixes("Fixes[1]", got.Fixes[1], want.Fixes[1])
}

func TestLocate3DWithoutStatureChangeFails(t *testing.T) {
	sc := ruler2DScenario(5, 105)
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loc.Locate3D(s.Recording, s.IMU); err == nil {
		t.Error("3D without a stature change should error")
	}
}

// TestLocate2DDriftCorrectionAblation: disabling the eq. (4) correction
// should typically worsen accuracy with a biased IMU.
func TestLocate2DDriftCorrectionAblation(t *testing.T) {
	var with, without float64
	for _, seed := range []int64{21, 22, 23} {
		sc := ruler2DScenario(5, seed)
		sc.IMU.AccelBiasStd = 0.08
		s, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		run := func(disable bool) float64 {
			cfg := DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation)
			cfg.DisableDriftCorrection = disable
			cfg.PDE.MinSlideDist = 0 // drift may push estimates below the gate
			loc, err := NewLocalizer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := loc.Locate2D(s.Recording, s.IMU)
			if err != nil {
				return 3.0 // count a failed session as a large error
			}
			est := bodyToWorld(res.Pos, sc.PhoneStart, s.TrueYaw)
			return est.Sub(sc.SpeakerPos.XY()).Norm()
		}
		with += run(false)
		without += run(true)
	}
	if with >= without {
		t.Errorf("drift correction should reduce mean error: with=%.3f without=%.3f",
			with/3, without/3)
	}
}

func TestLocate2DHandMode(t *testing.T) {
	sc := ruler2DScenario(5, 106)
	sc.Protocol.Mode = sim.ModeHand
	errDist, res, _ := locate2DScenario(t, sc)
	if len(res.Fixes) == 0 {
		t.Fatal("no fixes in hand mode")
	}
	if errDist > 0.8 {
		t.Errorf("hand-mode 2D error at 5 m = %.3f m, want < 0.8 m", errDist)
	}
}

// TestLocateStreamedMatchesBatch pins the streamed-session locate: the
// channels pushed through the Localizer's own envelope feeds in
// 4096-sample chunks, Locate2DStreamed reuses the feeds' blocks and must
// return Locate2D's beacons and fix bit for bit. Prefixes from another
// Localizer's feeds (a different template) are ignored: ASP recomputes
// from lag 0 and the answer is the same.
func TestLocateStreamedMatchesBatch(t *testing.T) {
	sc := ruler2DScenario(4, 108)
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recording
	cfg := DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation)
	loc, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ASP.FilterTaps = 201
	other, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loc.Locate2D(rec, s.IMU)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(l *Localizer) [2]dsp.EnvelopePrefix {
		var pre [2]dsp.EnvelopePrefix
		for i, ch := range [][]float64{rec.Mic1, rec.Mic2} {
			f := l.NewEnvelopeFeed()
			for at := 0; at < len(ch); at += 4096 {
				f.Push(ch[at:min(at+4096, len(ch))])
			}
			pre[i] = f.Prefix()
		}
		return pre
	}
	own := feed(loc)
	if own[0].Len() == 0 || own[1].Len() == 0 {
		t.Fatal("feeds built no blocks")
	}
	for name, pre := range map[string][2]dsp.EnvelopePrefix{"own": own, "foreign": feed(other)} {
		got, err := loc.Locate2DStreamed(context.Background(), rec.Channels(), s.IMU, pre)
		if err != nil {
			t.Fatal(err)
		}
		eq := func(what string, a, b float64) {
			t.Helper()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s prefixes: %s %v, batch %v", name, what, a, b)
			}
		}
		if len(got.ASP.Beacons) != len(want.ASP.Beacons) || len(got.Fixes) != len(want.Fixes) {
			t.Fatalf("%s prefixes: %d beacons/%d fixes, batch %d/%d", name,
				len(got.ASP.Beacons), len(got.Fixes), len(want.ASP.Beacons), len(want.Fixes))
		}
		for i, b := range want.ASP.Beacons {
			eq("beacon T1", got.ASP.Beacons[i].T1, b.T1)
			eq("beacon T2", got.ASP.Beacons[i].T2, b.T2)
			eq("beacon SNR", got.ASP.Beacons[i].SNR, b.SNR)
		}
		eq("Pos.X", got.Pos.X, want.Pos.X)
		eq("Pos.Y", got.Pos.Y, want.Pos.Y)
		eq("L", got.L, want.L)
	}
}

// TestStreamDetectorMatchesASP: mic1 streamed in 4096-sample chunks
// through the Localizer's StreamDetector reports ASP's batch detections
// of that channel — Index, Time and Strength bit for bit — save those in
// the blocks not yet final at the end of the stream, and its Prefix is
// the channel's NewEnvelopeFeed prefix.
func TestStreamDetectorMatchesASP(t *testing.T) {
	sc := ruler2DScenario(4, 108)
	s, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	mic1 := s.Recording.Mic1
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	det, feed := loc.NewStreamDetector(), loc.NewEnvelopeFeed()
	var got []chirp.Detection
	for at := 0; at < len(mic1); at += 4096 {
		chunk := mic1[at:min(at+4096, len(mic1))]
		got = append(got, det.PushContext(context.Background(), chunk)...)
		feed.Push(chunk)
	}
	want := loc.asp.detector().Detect(mic1)
	// The blocks not final hold at most two 14320-sample block steps
	// plus one 16384-sample block: under a second, five beacons.
	if len(got) == 0 || len(got) > len(want) || len(want)-len(got) > 5 {
		t.Fatalf("stream reported %d detections, batch %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Index != w.Index || math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Strength) != math.Float64bits(w.Strength) {
			t.Fatalf("detection %d: stream %+v, batch %+v", i, g, w)
		}
	}
	if got, want := det.Prefix().Len(), feed.Prefix().Len(); got != want || got == 0 {
		t.Fatalf("detector prefix holds %d lags, the channel's feed %d", got, want)
	}
}

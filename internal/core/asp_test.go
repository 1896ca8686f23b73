package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/mic"
	"hyperear/internal/motion"
	"hyperear/internal/room"
)

func TestASPConfigValidate(t *testing.T) {
	if err := DefaultASPConfig().Validate(); err != nil {
		t.Errorf("default: %v", err)
	}
	cases := []func(*ASPConfig){
		func(c *ASPConfig) { c.BandMarginHz = -1 },
		func(c *ASPConfig) { c.FilterTaps = 5 },
		func(c *ASPConfig) { c.CalibDuration = -1 },
		func(c *ASPConfig) { c.MaxPairSkew = 0 },
	}
	for i, mut := range cases {
		c := DefaultASPConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNewASPRejectsBadInput(t *testing.T) {
	if _, err := NewASP(chirp.Params{}, 44100, DefaultASPConfig()); err == nil {
		t.Error("invalid source should error")
	}
	bad := DefaultASPConfig()
	bad.FilterTaps = 1
	if _, err := NewASP(chirp.Default(), 44100, bad); err == nil {
		t.Error("invalid config should error")
	}
}

func renderStatic(t *testing.T, phone mic.Phone, skewPPM float64, dur float64, noise room.NoiseSource, snr float64) *mic.Recording {
	t.Helper()
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).Hold(dur).Build()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := mic.Render(mic.RenderConfig{
		Env:            room.FreeField(),
		Source:         chirp.Default(),
		SourcePos:      geom.Vec3{X: 4, Y: 1},
		SpeakerSkewPPM: skewPPM,
		Phone:          phone,
		Traj:           traj,
		Noise:          noise,
		SNRdB:          snr,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestASPProcessPairsBeacons(t *testing.T) {
	phone := mic.GalaxyS4()
	rec := renderStatic(t, phone, 0, 2.0, nil, 0)
	asp, err := NewASP(chirp.Default(), phone.SampleRate, DefaultASPConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := asp.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Beacons) < 8 {
		t.Fatalf("beacons = %d, want ≥8 in 2 s", len(res.Beacons))
	}
	// Sequence numbers must be consecutive for a clean recording.
	for i := 1; i < len(res.Beacons); i++ {
		if res.Beacons[i].Seq != res.Beacons[i-1].Seq+1 {
			t.Errorf("non-consecutive beacon seq %d -> %d",
				res.Beacons[i-1].Seq, res.Beacons[i].Seq)
		}
	}
	// TDoA must match the static geometry for every beacon.
	c := room.FreeField().SpeedOfSound()
	m1 := geom.Vec3{Y: phone.MicSeparation / 2}
	m2 := geom.Vec3{Y: -phone.MicSeparation / 2}
	spk := geom.Vec3{X: 4, Y: 1}
	want := (spk.Dist(m1) - spk.Dist(m2)) / c
	for i, b := range res.Beacons {
		if math.Abs(b.TDoA()-want) > 10e-6 {
			t.Errorf("beacon %d TDoA = %v, want %v", i, b.TDoA(), want)
		}
	}
}

func TestASPEstimatesSFO(t *testing.T) {
	phone := mic.GalaxyS4()
	phone.SFOPPM = 0
	for _, skew := range []float64{0, 40, -60} {
		rec := renderStatic(t, phone, skew, 4.0, nil, 0)
		asp, err := NewASP(chirp.Default(), phone.SampleRate, DefaultASPConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := asp.Process(rec)
		if err != nil {
			t.Fatal(err)
		}
		// Speaker running fast (positive skew) compresses the received
		// period: SFO estimate ≈ -skew.
		if math.Abs(res.SFOPPM+skew) > 5 {
			t.Errorf("skew %v ppm: estimated SFO = %v ppm, want ≈%v", skew, res.SFOPPM, -skew)
		}
		if res.CalibBeacons < 3 {
			t.Errorf("calibration used %d beacons", res.CalibBeacons)
		}
	}
}

func TestASPDisableSFOCorrection(t *testing.T) {
	phone := mic.GalaxyS4()
	cfg := DefaultASPConfig()
	cfg.DisableSFOCorrection = true
	rec := renderStatic(t, phone, 80, 3.0, nil, 0)
	asp, err := NewASP(chirp.Default(), phone.SampleRate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := asp.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeriodEff != chirp.Default().Period {
		t.Errorf("period = %v, want nominal", res.PeriodEff)
	}
	if res.SFOPPM != 0 {
		t.Errorf("SFO = %v, want 0 when disabled", res.SFOPPM)
	}
}

func TestASPUnderNoise(t *testing.T) {
	phone := mic.GalaxyS4()
	rec := renderStatic(t, phone, 0, 2.0, room.MusicNoise{}, 6)
	asp, err := NewASP(chirp.Default(), phone.SampleRate, DefaultASPConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := asp.Process(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Beacons) < 6 {
		t.Errorf("beacons = %d at 6 dB SNR, want ≥6", len(res.Beacons))
	}
}

func TestASPEmptyRecording(t *testing.T) {
	asp, err := NewASP(chirp.Default(), 44100, DefaultASPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asp.Process(nil); err == nil {
		t.Error("nil recording should error")
	}
	if _, err := asp.Process(&mic.Recording{}); err == nil {
		t.Error("empty recording should error")
	}
	// Silence: no beacons on either channel.
	silent := &mic.Recording{
		Fs:   44100,
		Mic1: make([]float64, 44100),
		Mic2: make([]float64, 44100),
	}
	if _, err := asp.Process(silent); err == nil {
		t.Error("silent recording should error")
	}
}

func TestOLSSlope(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7}
	slope, ok := olsSlope(x, y)
	if !ok || math.Abs(slope-2) > 1e-12 {
		t.Errorf("slope = %v ok=%v, want 2", slope, ok)
	}
	// Degenerate: all x equal.
	if _, ok := olsSlope([]float64{1, 1}, []float64{0, 1}); ok {
		t.Error("degenerate fit should fail")
	}
}

// panicDetector panics on the channel whose first sample is at panicOn.
// The other channel's call waits until the panic has started, then
// sleeps before it records that it returned, so a re-panic that did not
// wait for it would surface while it still runs.
type panicDetector struct {
	panicOn  *float64
	started  chan struct{}
	returned *atomic.Bool
}

func (p panicDetector) DetectIntoCtx(_ context.Context, dst []chirp.Detection, x dsp.Samples, _ dsp.EnvelopePrefix, _ *chirp.DetectScratch) ([]chirp.Detection, error) {
	if &floats(x)[0] == p.panicOn {
		close(p.started)
		panic("boom")
	}
	<-p.started
	time.Sleep(20 * time.Millisecond)
	p.returned.Store(true)
	return dst[:0], nil
}

// panicOnChannel runs ProcessContext with a panicDetector that panics on
// mic(ch+1) and returns what the caller recovered and whether the other
// channel's call had returned by then.
func panicOnChannel(t *testing.T, ch int) (r any, otherReturned bool) {
	t.Helper()
	a, err := NewASP(chirp.Default(), 44100, DefaultASPConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &mic.Recording{Fs: 44100, Mic1: make([]float64, 8), Mic2: make([]float64, 8)}
	var returned atomic.Bool
	a.det = panicDetector{panicOn: &[][]float64{rec.Mic1, rec.Mic2}[ch][0], started: make(chan struct{}), returned: &returned}
	defer func() { r, otherReturned = recover(), returned.Load() }()
	a.ProcessContext(context.Background(), rec)
	return nil, false
}

// TestASPChannelPanicPropagates: a panic in either channel's detection,
// on the caller's goroutine (mic1) or the fan-out's (mic2), re-raises on
// the caller of ProcessContext with the same value.
func TestASPChannelPanicPropagates(t *testing.T) {
	for ch := range 2 {
		if r, _ := panicOnChannel(t, ch); r != "boom" {
			t.Errorf("panic on mic%d: recovered %v, want \"boom\"", ch+1, r)
		}
	}
}

// TestASPChannelPanicDrainsChannels: the re-panic happens only after the
// other channel's call has returned, so no detection still runs once
// ProcessContext has handed control back via panic.
func TestASPChannelPanicDrainsChannels(t *testing.T) {
	for ch := range 2 {
		r, otherReturned := panicOnChannel(t, ch)
		if r == nil {
			t.Fatalf("panic on mic%d did not propagate", ch+1)
		}
		if !otherReturned {
			t.Errorf("panic on mic%d re-raised before the other channel returned", ch+1)
		}
	}
}

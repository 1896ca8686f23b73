package mic

import (
	"math"
	"testing"

	"hyperear/internal/chirp"
	"hyperear/internal/geom"
	"hyperear/internal/motion"
	"hyperear/internal/room"
)

func TestPhonePresetsValidate(t *testing.T) {
	for _, p := range []Phone{GalaxyS4(), GalaxyNote3()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPhoneValidateRejects(t *testing.T) {
	cases := []func(*Phone){
		func(p *Phone) { p.MicSeparation = 0 },
		func(p *Phone) { p.MicSeparation = 1 },
		func(p *Phone) { p.SampleRate = 100 },
		func(p *Phone) { p.BitDepth = 4 },
		func(p *Phone) { p.SelfNoiseRMS = -1 },
	}
	for i, mut := range cases {
		p := GalaxyS4()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMicBodyPositions(t *testing.T) {
	p := GalaxyS4()
	m1 := p.MicBodyPos(1)
	m2 := p.MicBodyPos(2)
	if math.Abs(m1.Dist(m2)-p.MicSeparation) > 1e-12 {
		t.Errorf("mic separation %v, want %v", m1.Dist(m2), p.MicSeparation)
	}
	if m1.Y <= m2.Y {
		t.Error("Mic1 should sit at +y, Mic2 at -y")
	}
	if p.MicBodyPos(3) != (geom.Vec3{}) {
		t.Error("invalid mic index should return zero")
	}
}

func TestEffectiveRate(t *testing.T) {
	p := GalaxyS4()
	p.SFOPPM = 100
	want := 44100 * (1 + 100e-6)
	if got := p.EffectiveRate(); math.Abs(got-want) > 1e-9 {
		t.Errorf("EffectiveRate = %v, want %v", got, want)
	}
}

// staticPhone builds a hold trajectory with yaw 0 (body y = world y).
func staticPhone(pos geom.Vec3, dur float64) motion.Trajectory {
	traj, err := motion.NewBuilder(pos, 0).Hold(dur).Build()
	if err != nil {
		panic(err)
	}
	return traj
}

// cleanPhone returns a noiseless, skewless S4 for physics checks.
func cleanPhone() Phone {
	p := GalaxyS4()
	p.SFOPPM = 0
	p.SelfNoiseRMS = 0
	return p
}

func TestRenderValidation(t *testing.T) {
	base := RenderConfig{
		Env:       room.FreeField(),
		Source:    chirp.Default(),
		SourcePos: geom.Vec3{X: 3, Y: 1, Z: 1.2},
		Phone:     cleanPhone(),
		Traj:      staticPhone(geom.Vec3{Z: 1.2}, 0.5),
	}
	bad := base
	bad.Traj = nil
	if _, err := Render(bad); err == nil {
		t.Error("nil trajectory should error")
	}
	bad = base
	bad.Phone.MicSeparation = 0
	if _, err := Render(bad); err == nil {
		t.Error("invalid phone should error")
	}
	bad = base
	bad.Source.Duration = 0
	if _, err := Render(bad); err == nil {
		t.Error("invalid source should error")
	}
	bad = base
	bad.Env.Size.X = 0
	if _, err := Render(bad); err == nil {
		t.Error("invalid env should error")
	}
}

// TestRenderTDoAPhysics places the speaker broadside and endfire and
// verifies the inter-mic TDoA seen by a matched-filter detector matches
// geometry to within a few microseconds.
func TestRenderTDoAPhysics(t *testing.T) {
	env := room.FreeField()
	p := cleanPhone()
	src := chirp.Default()
	c := env.SpeedOfSound()

	cases := []struct {
		name      string
		sourcePos geom.Vec3
	}{
		// Phone at origin with body y = world y: mics at y = ±D/2.
		{"broadside", geom.Vec3{X: 4, Y: 0, Z: 0}},   // equal distance: TDoA 0
		{"endfire+y", geom.Vec3{X: 0, Y: 5, Z: 0}},   // nearer Mic1: t1 < t2
		{"oblique", geom.Vec3{X: 3, Y: 2.5, Z: 0.4}}, //
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := Render(RenderConfig{
				Env: env, Source: src, SourcePos: tc.sourcePos,
				Phone: p, Traj: staticPhone(geom.Vec3{}, 0.5),
				DisableQuantization: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			det, err := chirp.NewDetector(src, p.SampleRate)
			if err != nil {
				t.Fatal(err)
			}
			d1 := det.Detect(rec.Mic1)
			d2 := det.Detect(rec.Mic2)
			if len(d1) == 0 || len(d2) == 0 {
				t.Fatal("no detections")
			}
			gotTDoA := d1[0].Time - d2[0].Time
			m1 := geom.Vec3{Y: p.MicSeparation / 2}
			m2 := geom.Vec3{Y: -p.MicSeparation / 2}
			wantTDoA := (tc.sourcePos.Dist(m1) - tc.sourcePos.Dist(m2)) / c
			if math.Abs(gotTDoA-wantTDoA) > 8e-6 {
				t.Errorf("TDoA = %v s, want %v s (err %.2f µs)",
					gotTDoA, wantTDoA, (gotTDoA-wantTDoA)*1e6)
			}
		})
	}
}

// TestRenderAugmentedTDoA verifies the core HyperEar observable: sliding
// the phone toward the speaker between two beacons shortens the arrival
// time at the same mic by (moved distance)/c.
func TestRenderAugmentedTDoA(t *testing.T) {
	env := room.FreeField()
	p := cleanPhone()
	src := chirp.Default()
	c := env.SpeedOfSound()

	// Speaker along +y; slide phone 0.5 m along +y (toward it).
	srcPos := geom.Vec3{Y: 6}
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).
		Hold(0.3).
		Slide(0.5, 1.0).
		Hold(0.3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Render(RenderConfig{
		Env: env, Source: src, SourcePos: srcPos,
		Phone: p, Traj: traj, DisableQuantization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := chirp.NewDetector(src, p.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	d1 := det.Detect(rec.Mic1)
	if len(d1) < 8 {
		t.Fatalf("want ≥8 beacons over 1.6 s, got %d", len(d1))
	}
	first := d1[0]
	last := d1[len(d1)-1]
	n := int(math.Round((last.Time - first.Time) / src.Period))
	augTDoA := last.Time - first.Time - float64(n)*src.Period
	want := -0.5 / c // moved 0.5 m closer
	if math.Abs(augTDoA-want) > 10e-6 {
		t.Errorf("augmented TDoA = %v s, want %v s (err %.1f µs)",
			augTDoA, want, (augTDoA-want)*1e6)
	}
}

// TestRenderSpeakerSkewStretchesPeriod verifies SFO modeling: with a
// +100 ppm speaker clock the detected beacon period shrinks by 100 ppm
// (the speaker runs fast).
func TestRenderSpeakerSkewStretchesPeriod(t *testing.T) {
	env := room.FreeField()
	p := cleanPhone()
	src := chirp.Default()
	rec, err := Render(RenderConfig{
		Env: env, Source: src, SourcePos: geom.Vec3{X: 3},
		SpeakerSkewPPM: 100,
		Phone:          p, Traj: staticPhone(geom.Vec3{}, 4.0),
		DisableQuantization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := chirp.NewDetector(src, p.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	d1 := det.Detect(rec.Mic1)
	if len(d1) < 15 {
		t.Fatalf("detections %d, want ≥15", len(d1))
	}
	span := d1[len(d1)-1].Time - d1[0].Time
	period := span / float64(len(d1)-1)
	wantPeriod := src.Period / (1 + 100e-6)
	if math.Abs(period-wantPeriod) > 1e-6 {
		t.Errorf("period = %.9f s, want %.9f s", period, wantPeriod)
	}
	// And it must differ measurably from the nominal period.
	if math.Abs(period-src.Period) < 1e-8 {
		t.Error("skew had no effect on the detected period")
	}
}

func TestRenderSNRCalibration(t *testing.T) {
	env := room.MeetingRoom()
	p := GalaxyS4()
	src := chirp.Default()
	rec, err := Render(RenderConfig{
		Env: env, Source: src, SourcePos: geom.Vec3{X: 8, Y: 6, Z: 1.2},
		Phone: p, Traj: staticPhone(geom.Vec3{X: 3, Y: 6, Z: 1.2}, 1.0),
		Noise: room.WhiteNoise{}, SNRdB: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TrueSNRdB != 10 {
		t.Errorf("TrueSNRdB = %v, want 10", rec.TrueSNRdB)
	}
	// The chirps must still be detectable at 10 dB.
	det, err := chirp.NewDetector(src, p.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if d := det.Detect(rec.Mic1); len(d) < 4 {
		t.Errorf("only %d detections at 10 dB SNR", len(d))
	}
}

func TestRenderQuantizationGrid(t *testing.T) {
	env := room.FreeField()
	p := cleanPhone()
	src := chirp.Default()
	rec, err := Render(RenderConfig{
		Env: env, Source: src, SourcePos: geom.Vec3{X: 2},
		Phone: p, Traj: staticPhone(geom.Vec3{}, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	q := math.Exp2(float64(p.BitDepth - 1))
	for i, v := range rec.Mic1[:2000] {
		scaled := v * q
		if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
			t.Fatalf("sample %d = %v not on the %d-bit grid", i, v, p.BitDepth)
		}
	}
}

func TestRenderAttenuationWithDistance(t *testing.T) {
	env := room.FreeField()
	p := cleanPhone()
	src := chirp.Default()
	level := func(dist float64) float64 {
		rec, err := Render(RenderConfig{
			Env: env, Source: src, SourcePos: geom.Vec3{X: dist},
			Phone: p, Traj: staticPhone(geom.Vec3{}, 0.3),
			DisableQuantization: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return maxAbs2(rec.Mic1)
	}
	near := level(1)
	far := level(7)
	if far >= near {
		t.Errorf("amplitude should fall with distance: 1m=%v 7m=%v", near, far)
	}
	if ratio := near / far; ratio < 5 || ratio > 9 {
		t.Errorf("1m/7m amplitude ratio = %v, want ≈7 (spherical spreading)", ratio)
	}
}

func BenchmarkRenderOneSecond(b *testing.B) {
	env := room.MeetingRoom()
	p := GalaxyS4()
	src := chirp.Default()
	cfg := RenderConfig{
		Env: env, Source: src, SourcePos: geom.Vec3{X: 8, Y: 6, Z: 1.2},
		Phone: p, Traj: staticPhone(geom.Vec3{X: 3, Y: 6, Z: 1.2}, 1.0),
		Noise: room.WhiteNoise{}, SNRdB: 15,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Render(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

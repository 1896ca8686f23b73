package core

import (
	"context"
	"sync"
	"testing"

	"hyperear/internal/chirp"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sim"
)

// Stage-ledger rows: the MSP, PDE and TTL stages of one Locate2D, each
// timed alone on the path the locate runs (a pooled Scratch, the stages'
// unexported entry points), over the 5-slide session the root package's
// BenchmarkASP and BenchmarkPipelineLocate2D time.

// benchStages is the bench session and every stage's output before TTL.
type benchStages struct {
	loc  *Localizer
	imu  *imu.Trace
	asp  *ASPResult
	msp  *MSPResult
	ests []SlideEstimate
}

// benchSession lazily renders the root package's benchScenario (its
// bench_test.go) and runs ASP, MSP and PDE over it once.
var benchSession = sync.OnceValues(func() (*benchStages, error) {
	sc := sim.Scenario{
		Env:            room.MeetingRoom(),
		Phone:          mic.GalaxyS4(),
		Source:         chirp.Default(),
		SpeakerPos:     geom.Vec3{X: 9, Y: 6, Z: 1.2},
		SpeakerSkewPPM: 20,
		PhoneStart:     geom.Vec3{X: 4, Y: 6, Z: 1.2},
		Protocol:       sim.DefaultProtocol(),
		IMU:            imu.DefaultConfig(),
		Noise:          room.WhiteNoise{},
		SNRdB:          15,
		Seed:           12,
	}
	s, err := sim.Run(sc)
	if err != nil {
		return nil, err
	}
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		return nil, err
	}
	st := &benchStages{loc: loc, imu: s.IMU}
	// The MSPResult aliases this Scratch, which the stages keep.
	st.asp, st.msp, st.ests, err = loc.analyzeSession(context.Background(), s.Recording.Channels(), s.IMU, [2]dsp.EnvelopePrefix{}, new(Scratch))
	return st, err
})

func loadBenchStages(b *testing.B) *benchStages {
	b.Helper()
	st, err := benchSession()
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkMSP times motion-signal preprocessing alone: gravity removal,
// smoothing and movement segmentation of the session's IMU trace into a
// warm Scratch.
func BenchmarkMSP(b *testing.B) {
	st := loadBenchStages(b)
	ctx, cfg, scr := context.Background(), st.loc.cfg.MSP, new(Scratch)
	if _, err := preprocessIMU(ctx, st.imu, cfg, scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := preprocessIMU(ctx, st.imu, cfg, scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDE times phone displacement estimation alone: every
// segmented movement's drift-corrected integration and classification,
// through one warm scratch slot.
func BenchmarkPDE(b *testing.B) {
	st := loadBenchStages(b)
	cfg := st.loc.cfg.PDE
	var ps pdeScratch
	for _, seg := range st.msp.Segments {
		estimateMovement(st.msp, seg, cfg, &ps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seg := range st.msp.Segments {
			estimateMovement(st.msp, seg, cfg, &ps)
		}
	}
}

// BenchmarkTTL times the triangulation stage alone: anchor beacons, the
// gyro yaw correction and the slide fix for every movement, as
// localizeSlides runs them after PDE.
func BenchmarkTTL(b *testing.B) {
	st := loadBenchStages(b)
	ctx := context.Background()
	fixes, _, err := st.loc.localizeSlides(ctx, st.asp, st.msp, st.ests)
	if err != nil || len(fixes) == 0 {
		b.Fatalf("%d fixes, err %v", len(fixes), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.loc.localizeSlides(ctx, st.asp, st.msp, st.ests); err != nil {
			b.Fatal(err)
		}
	}
}

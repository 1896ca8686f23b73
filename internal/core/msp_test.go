package core

import (
	"math"
	"testing"

	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/motion"
)

func TestMSPConfigValidate(t *testing.T) {
	if err := DefaultMSPConfig().Validate(); err != nil {
		t.Errorf("default: %v", err)
	}
	cases := []func(*MSPConfig){
		func(c *MSPConfig) { c.SMAWindow = 0 },
		func(c *MSPConfig) { c.PowerWindow = 0 },
		func(c *MSPConfig) { c.PowerThreshold = 0 },
		func(c *MSPConfig) { c.QuietSamples = 0 },
	}
	for i, mut := range cases {
		c := DefaultMSPConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSlidingMean(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	got := slidingMean(x, 2)
	want := []float64{1.5, 2.5, 3.5, 4} // tail truncates
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("slidingMean[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSegmentSyntheticBursts(t *testing.T) {
	// Power: quiet, burst, quiet, burst, quiet.
	p := make([]float64, 100)
	for i := 20; i < 40; i++ {
		p[i] = 1
	}
	for i := 60; i < 75; i++ {
		p[i] = 1
	}
	segs := segment(p, 0.5, 5)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].Start != 20 || segs[0].End < 40 || segs[0].End > 46 {
		t.Errorf("segment 0 = %+v", segs[0])
	}
	if segs[1].Start != 60 || segs[1].End < 75 || segs[1].End > 81 {
		t.Errorf("segment 1 = %+v", segs[1])
	}
}

func TestSegmentOpenEnded(t *testing.T) {
	// Movement running to the end of the trace must still close.
	p := make([]float64, 50)
	for i := 30; i < 50; i++ {
		p[i] = 1
	}
	segs := segment(p, 0.5, 8)
	if len(segs) != 1 || segs[0].Start != 30 || segs[0].End != 50 {
		t.Errorf("segments = %+v", segs)
	}
}

func TestSegmentBriefDipDoesNotSplit(t *testing.T) {
	// A dip shorter than quiet must not split the movement.
	p := make([]float64, 60)
	for i := 10; i < 50; i++ {
		p[i] = 1
	}
	p[30], p[31] = 0, 0 // 2-sample dip < quiet=8
	segs := segment(p, 0.5, 8)
	if len(segs) != 1 {
		t.Errorf("segments = %+v, want 1", segs)
	}
}

// TestPreprocessIMUFindsSlides reproduces the Figure 8 behavior: a session
// of back-and-forth slides segments into exactly that many movements.
func TestPreprocessIMUFindsSlides(t *testing.T) {
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).
		Hold(1).
		Slide(0.55, 1).
		Hold(0.6).
		Slide(-0.55, 1).
		Hold(0.6).
		Slide(0.55, 1).
		Hold(1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := imu.DefaultConfig()
	cfg.Seed = 21
	tr, err := imu.Sample(traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msp, err := PreprocessIMU(tr, DefaultMSPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(msp.Segments) != 3 {
		t.Fatalf("segments = %d, want 3 (got %+v)", len(msp.Segments), msp.Segments)
	}
	// Segment times must bracket the true slide times (1-2, 2.6-3.6, 4.2-5.2 s).
	wantStarts := []float64{1, 2.6, 4.2}
	for i, seg := range msp.Segments {
		start := float64(seg.Start) / msp.Fs
		end := float64(seg.End) / msp.Fs
		if math.Abs(start-wantStarts[i]) > 0.25 {
			t.Errorf("segment %d starts at %v, want ≈%v", i, start, wantStarts[i])
		}
		if end-start < 0.5 || end-start > 1.6 {
			t.Errorf("segment %d spans %v s, want ≈1 s", i, end-start)
		}
	}
}

func TestPreprocessIMUEmptyTrace(t *testing.T) {
	if _, err := PreprocessIMU(nil, DefaultMSPConfig()); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := PreprocessIMU(&imu.Trace{Fs: 100}, DefaultMSPConfig()); err == nil {
		t.Error("empty trace should error")
	}
}

func TestPreprocessIMUStationaryHasNoSegments(t *testing.T) {
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).Hold(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := imu.DefaultConfig()
	cfg.Seed = 22
	tr, err := imu.Sample(traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msp, err := PreprocessIMU(tr, DefaultMSPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(msp.Segments) != 0 {
		t.Errorf("stationary trace segmented into %+v", msp.Segments)
	}
}

// integrateYawDev, slidingMean and segment are allocating forms of the
// MSP kernels, for tests that check the kernels on plain slices.
func integrateYawDev(gyroZ []float64, fs float64, segs []Segment) []float64 {
	n := len(gyroZ)
	out := make([]float64, n)
	integrateYawDevInto(out, make([]float64, n), make([]bool, n), gyroZ, fs, segs)
	return out
}

func slidingMean(x []float64, w int) []float64 {
	out := make([]float64, len(x))
	slidingMeanInto(out, x, w)
	return out
}

func segment(power []float64, thresh float64, quiet int) []Segment {
	return segmentInto(nil, power, thresh, quiet)
}

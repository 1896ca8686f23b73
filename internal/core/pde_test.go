package core

import (
	"math"
	"testing"

	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/motion"
)

// TestCorrectVelocityExactForConstantBias verifies the paper's central
// PDE claim: a constant accelerometer bias produces a linear velocity
// drift, which the eq. (4) model removes exactly.
func TestCorrectVelocityExactForConstantBias(t *testing.T) {
	fs := 100.0
	n := 101 // 1 s
	bias := 0.08
	// True motion: min-jerk slide of 0.5 m; sampled true acceleration.
	accel := make([]float64, n)
	for i := range accel {
		tau := float64(i) / float64(n-1)
		accel[i] = 0.5*motion.MinJerkA(tau)/(1*1) + bias
	}
	vel, slope := CorrectVelocity(accel, fs)
	// Slope must recover the bias (the only drift source).
	if math.Abs(slope-bias) > 0.01 {
		t.Errorf("drift slope = %v, want ≈%v", slope, bias)
	}
	// Corrected terminal velocity must be ≈0.
	if got := vel[len(vel)-1]; math.Abs(got) > 1e-9 {
		t.Errorf("corrected v(t2) = %v, want 0", got)
	}
	// Displacement must be close to 0.5 m despite the bias.
	if d := IntegrateDisplacement(vel, fs); math.Abs(d-0.5) > 0.02 {
		t.Errorf("displacement = %v, want 0.5", d)
	}
}

func TestCorrectVelocityRawDriftIsWorse(t *testing.T) {
	// Quantifies Fig. 9: without correction the displacement error from a
	// bias is large; with correction it is small.
	fs := 100.0
	n := 101
	bias := 0.1
	accel := make([]float64, n)
	for i := range accel {
		tau := float64(i) / float64(n-1)
		accel[i] = 0.5*motion.MinJerkA(tau) + bias
	}
	var v, rawDisp float64
	for _, a := range accel {
		v += a / fs
		rawDisp += v / fs
	}
	vel, _ := CorrectVelocity(accel, fs)
	corrDisp := IntegrateDisplacement(vel, fs)
	rawErr := math.Abs(rawDisp - 0.5)
	corrErr := math.Abs(corrDisp - 0.5)
	if corrErr > rawErr/3 {
		t.Errorf("correction should cut the bias error ≥3x: raw %v vs corrected %v", rawErr, corrErr)
	}
}

func TestCorrectVelocityShortInput(t *testing.T) {
	vel, slope := CorrectVelocity([]float64{1}, 100)
	if len(vel) != 1 || slope != 0 {
		t.Errorf("short input: vel=%v slope=%v", vel, slope)
	}
	vel, slope = CorrectVelocity(nil, 100)
	if len(vel) != 0 || slope != 0 {
		t.Errorf("empty input: vel=%v slope=%v", vel, slope)
	}
}

func mspForTraj(t *testing.T, traj motion.Trajectory, seed int64) *MSPResult {
	t.Helper()
	cfg := imu.DefaultConfig()
	cfg.Seed = seed
	tr, err := imu.Sample(traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msp, err := PreprocessIMU(tr, DefaultMSPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return msp
}

func TestEstimateMovementSlide(t *testing.T) {
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).
		Hold(0.8).Slide(0.55, 1).Hold(0.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	msp := mspForTraj(t, traj, 31)
	if len(msp.Segments) != 1 {
		t.Fatalf("segments = %+v", msp.Segments)
	}
	est := EstimateMovement(msp, msp.Segments[0], DefaultPDEConfig())
	if est.Kind != KindSlide {
		t.Fatalf("kind = %v (%s), want slide", est.Kind, est.RejectReason)
	}
	if math.Abs(est.DispY-0.55) > 0.05 {
		t.Errorf("DispY = %v, want ≈0.55", est.DispY)
	}
	if est.PeakVel < 0.5 || est.PeakVel > 1.6 {
		t.Errorf("PeakVel = %v, want ≈1.03", est.PeakVel)
	}
}

func TestEstimateMovementBackwardSlide(t *testing.T) {
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).
		Hold(0.8).Slide(-0.55, 1).Hold(0.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	msp := mspForTraj(t, traj, 32)
	est := EstimateMovement(msp, msp.Segments[0], DefaultPDEConfig())
	if est.Kind != KindSlide {
		t.Fatalf("kind = %v, want slide", est.Kind)
	}
	if math.Abs(est.DispY+0.55) > 0.05 {
		t.Errorf("DispY = %v, want ≈-0.55 (sign preserved)", est.DispY)
	}
}

func TestEstimateMovementStature(t *testing.T) {
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).
		Hold(0.8).ChangeHeight(0.4, 0.8).Hold(0.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	msp := mspForTraj(t, traj, 33)
	if len(msp.Segments) != 1 {
		t.Fatalf("segments = %+v", msp.Segments)
	}
	est := EstimateMovement(msp, msp.Segments[0], DefaultPDEConfig())
	if est.Kind != KindStature {
		t.Fatalf("kind = %v (%s), want stature", est.Kind, est.RejectReason)
	}
	if math.Abs(est.DispZ-0.4) > 0.05 {
		t.Errorf("DispZ = %v, want ≈0.4", est.DispZ)
	}
}

func TestEstimateMovementShortSlideGated(t *testing.T) {
	// Short slides are quicker in practice; a 0.8 s 15 cm stroke would be
	// so gentle that its mid-stroke acceleration dip ends the segment.
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).
		Hold(0.8).Slide(0.15, 0.45).Hold(0.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	msp := mspForTraj(t, traj, 34)
	if len(msp.Segments) != 1 {
		t.Fatalf("segments = %+v", msp.Segments)
	}
	est := EstimateMovement(msp, msp.Segments[0], DefaultPDEConfig())
	if est.Kind != KindRejected {
		t.Fatalf("15 cm slide should be gated, got %v", est.Kind)
	}
	// With the gate disabled it must pass.
	cfg := DefaultPDEConfig()
	cfg.MinSlideDist = 0
	est = EstimateMovement(msp, msp.Segments[0], cfg)
	if est.Kind != KindSlide {
		t.Fatalf("ungated 15 cm slide = %v (%s)", est.Kind, est.RejectReason)
	}
}

func TestEstimateMovementRotationGated(t *testing.T) {
	// A slide combined with a 40° yaw change must be rejected by the
	// 20° gate.
	b := motion.NewBuilder(geom.Vec3{}, 0)
	b.Hold(0.8)
	b.Slide(0.55, 1)
	traj1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Append a rotation inside the movement window by composing manually:
	// instead, simulate rotation during slide via a shaky wrapper with a
	// huge rotation tremor.
	_ = traj1
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).
		Hold(0.8).Slide(0.55, 1).Hold(0.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := imu.Config{SampleRate: 100}
	tr, err := imu.Sample(traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a strong gyro signal during the slide (0.8-1.8 s).
	for i := 85; i < 175 && i < tr.Len(); i++ {
		tr.Gyro[i].Z = 0.8 // rad/s → ≈41° over 0.9 s
	}
	msp, err := PreprocessIMU(tr, DefaultMSPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(msp.Segments) != 1 {
		t.Fatalf("segments = %+v", msp.Segments)
	}
	est := EstimateMovement(msp, msp.Segments[0], DefaultPDEConfig())
	if est.Kind != KindRejected {
		t.Fatalf("rotated slide should be rejected, got %v (rot %v rad)", est.Kind, est.ZRotation)
	}
}

func TestMovementKindString(t *testing.T) {
	if KindSlide.String() != "slide" || KindStature.String() != "stature" ||
		KindRejected.String() != "rejected" {
		t.Error("kind strings wrong")
	}
	if MovementKind(9).String() != "kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestPad(t *testing.T) {
	s := pad(Segment{Start: 2, End: 8}, 3, 9)
	if s.Start != 0 || s.End != 9 {
		t.Errorf("pad = %+v", s)
	}
}

package imu

import (
	"math"
	"testing"

	"hyperear/internal/geom"
	"hyperear/internal/motion"
)

func hold(dur float64) motion.Trajectory {
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).Hold(dur).Build()
	if err != nil {
		panic(err)
	}
	return traj
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	c := DefaultConfig()
	c.SampleRate = 1
	if err := c.Validate(); err == nil {
		t.Error("tiny sample rate should error")
	}
	c = DefaultConfig()
	c.AccelNoiseStd = -1
	if err := c.Validate(); err == nil {
		t.Error("negative noise should error")
	}
}

func TestSampleNilTrajectory(t *testing.T) {
	if _, err := Sample(nil, Config{SampleRate: 100}); err == nil {
		t.Error("nil trajectory should error")
	}
}

func TestRestingPhoneReadsGravity(t *testing.T) {
	tr, err := Sample(hold(1), Config{SampleRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 101 {
		t.Errorf("samples = %d, want 101", tr.Len())
	}
	for i, a := range tr.Accel {
		if math.Abs(a.Z-Gravity) > 1e-9 || math.Abs(a.X) > 1e-9 || math.Abs(a.Y) > 1e-9 {
			t.Fatalf("sample %d: resting accel = %v, want (0,0,%v)", i, a, Gravity)
		}
	}
	// Linear acceleration must be zero after gravity removal.
	for i, la := range tr.LinearAccel() {
		if la.Norm() > 1e-9 {
			t.Fatalf("sample %d: linear accel = %v, want 0", i, la)
		}
	}
}

func TestSlideAccelerationProfile(t *testing.T) {
	// Slide 0.5 m along body y in 1 s: the ideal accelerometer's y axis
	// must integrate back to 0.5 m.
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).Slide(0.5, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sample(traj, Config{SampleRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	ay := Axis(tr.LinearAccel(), 1)
	dt := 1 / tr.Fs
	var v, d float64
	for _, a := range ay {
		v += a * dt
		d += v * dt
	}
	if math.Abs(d-0.5) > 0.01 {
		t.Errorf("double-integrated displacement = %v, want 0.5", d)
	}
	if math.Abs(v) > 0.01 {
		t.Errorf("final velocity = %v, want ≈0", v)
	}
}

func TestConstantBiasProducesLinearVelocityDrift(t *testing.T) {
	// With a pure constant bias, integrated velocity error grows linearly
	// in time — the premise of the paper's eq. (4) correction.
	cfg := Config{SampleRate: 100}
	cfg.AccelBiasStd = 0.05
	cfg.Seed = 5
	tr, err := Sample(hold(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ay := Axis(tr.LinearAccel(), 1)
	dt := 1 / tr.Fs
	v := make([]float64, len(ay))
	acc := 0.0
	for i, a := range ay {
		acc += a * dt
		v[i] = acc
	}
	// Check linearity: v at t and 2t should satisfy v(2t) ≈ 2·v(t).
	q := len(v) / 2
	if v[len(v)-1] == 0 {
		t.Fatal("bias draw produced exactly zero — test setup broken")
	}
	ratio := v[len(v)-1] / v[q]
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("drift ratio v(T)/v(T/2) = %v, want ≈2 (linear drift)", ratio)
	}
}

func TestYawIntegration(t *testing.T) {
	traj, err := motion.NewBuilder(geom.Vec3{}, 0).RotateTo(math.Pi/2, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sample(traj, Config{SampleRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	yaw := IntegrateYaw(tr, 0)
	if got := yaw[len(yaw)-1]; math.Abs(got-math.Pi/2) > 0.02 {
		t.Errorf("integrated yaw = %v, want π/2", got)
	}
}

func TestGravimeterTracksTilt(t *testing.T) {
	// With the phone yawed 90°, gravity is still along body z (flat
	// phone), so the gravimeter stays (0,0,g).
	traj, err := motion.NewBuilder(geom.Vec3{}, math.Pi/2).Hold(0.5).Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sample(traj, Config{SampleRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	g := tr.Gravity[10]
	if math.Abs(g.Z-Gravity) > 1e-9 {
		t.Errorf("gravimeter = %v, want z=%v", g, Gravity)
	}
}

func TestNoiseStatistics(t *testing.T) {
	cfg := Config{SampleRate: 100}
	cfg.AccelNoiseStd = 0.03
	cfg.Seed = 6
	tr, err := Sample(hold(30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ay := Axis(tr.LinearAccel(), 1)
	var s float64
	for _, v := range ay {
		s += v * v
	}
	std := math.Sqrt(s / float64(len(ay)))
	if math.Abs(std-0.03) > 0.005 {
		t.Errorf("accel noise std = %v, want 0.03", std)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 77
	a, err := Sample(hold(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(hold(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Accel {
		if a.Accel[i] != b.Accel[i] || a.Gyro[i] != b.Gyro[i] {
			t.Fatal("IMU sampling must be deterministic per seed")
		}
	}
}

func TestAxisExtraction(t *testing.T) {
	vs := []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}}
	if got := Axis(vs, 0); got[0] != 1 || got[1] != 4 {
		t.Errorf("Axis x = %v", got)
	}
	if got := Axis(vs, 1); got[0] != 2 || got[1] != 5 {
		t.Errorf("Axis y = %v", got)
	}
	if got := Axis(vs, 2); got[0] != 3 || got[1] != 6 {
		t.Errorf("Axis z = %v", got)
	}
}

// LinearAccel returns Accel - Gravity per sample: the gravity-compensated
// body-frame acceleration MSP starts from.
func (t *Trace) LinearAccel() []geom.Vec3 {
	out := make([]geom.Vec3, len(t.Accel))
	for i := range out {
		out[i] = t.Accel[i].Sub(t.Gravity[i])
	}
	return out
}

// Axis extracts one body axis (0=x, 1=y, 2=z) from a vector series.
func Axis(vs []geom.Vec3, axis int) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		switch axis {
		case 0:
			out[i] = v.X
		case 1:
			out[i] = v.Y
		default:
			out[i] = v.Z
		}
	}
	return out
}

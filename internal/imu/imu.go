// Package imu simulates the low-end inertial sensors HyperEar reads: a
// 100 Hz accelerometer and gyroscope with white noise, constant bias plus
// slow random-walk, and a gravity ("gravimeter") channel the MSP stage
// uses to cancel gravity. The accelerometer reports specific force in the
// body frame — R_world→body·(a − g) — so a phone at rest reads +9.81 m/s²
// on its z axis, and double-integrating body-y acceleration during a slide
// drifts exactly the way the paper's PDE stage is designed to fix.
package imu

import (
	"fmt"
	"math"
	"math/rand"

	"hyperear/internal/geom"
	"hyperear/internal/motion"
)

// Gravity is standard gravity in m/s².
const Gravity = 9.80665

// Config describes the sensor error model.
type Config struct {
	// SampleRate in Hz (both phones sample inertial sensors at 100 Hz).
	SampleRate float64
	// AccelNoiseStd is the accelerometer white-noise standard deviation
	// per axis in m/s².
	AccelNoiseStd float64
	// AccelBiasStd is the standard deviation of the constant per-session
	// accelerometer bias drawn per axis in m/s². This is the term the
	// PDE linear drift correction removes (paper eq. 4 and ref [16]).
	AccelBiasStd float64
	// AccelBiasWalkStd is the per-sample random-walk increment of the
	// bias in m/s² (slow drift within a session).
	AccelBiasWalkStd float64
	// GyroNoiseStd is the gyroscope white-noise std per axis in rad/s.
	GyroNoiseStd float64
	// GyroBiasStd is the constant gyro bias std per axis in rad/s.
	GyroBiasStd float64
	// GravityErrStd is the error std of the gravity estimate per axis in
	// m/s² (the gravimeter fuses slowly, so its output is smooth but
	// slightly wrong).
	GravityErrStd float64
	// Seed drives all random draws.
	Seed int64
}

// DefaultConfig returns an error model representative of the 2013-era
// consumer IMUs in the paper's phones.
func DefaultConfig() Config {
	return Config{
		SampleRate:       100,
		AccelNoiseStd:    0.03,
		AccelBiasStd:     0.05,
		AccelBiasWalkStd: 2e-4,
		GyroNoiseStd:     0.002,
		GyroBiasStd:      0.01,
		GravityErrStd:    0.01,
		Seed:             1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SampleRate < 10 || c.SampleRate > 10000 {
		return fmt.Errorf("imu: sample rate %v Hz outside [10, 10000]", c.SampleRate)
	}
	for _, v := range []float64{c.AccelNoiseStd, c.AccelBiasStd, c.AccelBiasWalkStd,
		c.GyroNoiseStd, c.GyroBiasStd, c.GravityErrStd} {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("imu: negative or NaN noise parameter")
		}
	}
	return nil
}

// Trace is a sampled IMU session.
type Trace struct {
	// Fs is the sampling rate in Hz.
	Fs float64
	// Accel is the body-frame specific force per sample (gravity
	// included, as the raw Android sensor reports it).
	Accel []geom.Vec3
	// Gyro is the body-frame angular rate per sample.
	Gyro []geom.Vec3
	// Gravity is the gravimeter output per sample: the estimated gravity
	// vector in the body frame, to be subtracted from Accel for linear
	// acceleration.
	Gravity []geom.Vec3
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Accel) }

// Sample simulates the IMU over the whole trajectory.
func Sample(traj motion.Trajectory, cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if traj == nil {
		return nil, fmt.Errorf("imu: nil trajectory")
	}
	n := int(traj.Duration()*cfg.SampleRate) + 1
	rng := rand.New(rand.NewSource(cfg.Seed))

	gauss3 := func(std float64) geom.Vec3 {
		if std == 0 {
			return geom.Vec3{}
		}
		return geom.Vec3{
			X: std * rng.NormFloat64(),
			Y: std * rng.NormFloat64(),
			Z: std * rng.NormFloat64(),
		}
	}

	accelBias := gauss3(cfg.AccelBiasStd)
	gyroBias := gauss3(cfg.GyroBiasStd)
	gravErr := gauss3(cfg.GravityErrStd)
	gWorld := geom.Vec3{Z: -Gravity}

	tr := &Trace{
		Fs:      cfg.SampleRate,
		Accel:   make([]geom.Vec3, n),
		Gyro:    make([]geom.Vec3, n),
		Gravity: make([]geom.Vec3, n),
	}
	for k := 0; k < n; k++ {
		t := float64(k) / cfg.SampleRate
		pose := traj.Pose(t)
		toBody := pose.Orient.Conj()
		// Specific force: f = R^T (a - g).
		f := toBody.Apply(pose.Acc.Sub(gWorld))
		accelBias = accelBias.Add(gauss3(cfg.AccelBiasWalkStd))
		tr.Accel[k] = f.Add(accelBias).Add(gauss3(cfg.AccelNoiseStd))
		tr.Gyro[k] = pose.AngVel.Add(gyroBias).Add(gauss3(cfg.GyroNoiseStd))
		// Gravimeter: true gravity direction in body frame plus a smooth
		// per-session error.
		tr.Gravity[k] = toBody.Apply(gWorld.Scale(-1)).Add(gravErr)
	}
	return tr, nil
}

// IntegrateYaw integrates the z-axis gyro to a yaw angle series (radians),
// starting from yaw0 — how the SDF stage tracks how far the user has
// rolled the phone, and how PDE gates slides on z-rotation.
func IntegrateYaw(tr *Trace, yaw0 float64) []float64 {
	out := make([]float64, tr.Len())
	yaw := yaw0
	dt := 1 / tr.Fs
	for i := range out {
		out[i] = yaw
		yaw += tr.Gyro[i].Z * dt
	}
	return out
}

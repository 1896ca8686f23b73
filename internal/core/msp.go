// Package core implements HyperEar's six-stage pipeline (paper Fig. 5):
//
//   - ASP, acoustic signal preprocessing: band-pass filtering, matched-filter
//     chirp detection with sub-sample interpolation, and sampling-frequency
//     offset (SFO) estimation/correction.
//   - SDF, speaker direction finding: per-beacon TDoA tracking during a
//     rotation sweep and in-direction (zero-crossing) detection.
//   - MSP, motion signal preprocessing: gravity removal, moving-average
//     smoothing, and power-based movement segmentation.
//   - PDE, phone displacement estimation: velocity integration with the
//     zero-velocity-endpoint linear drift correction (eq. 4) and slide
//     quality gating.
//   - TTL, 2D TDoA localization: augmented TDoAs across each slide (eq. 5,
//     6) triangulated by hyperbola intersection.
//   - PLE, projected location estimation: the two-stature 3D protocol
//     (eq. 7) that projects the speaker onto the floor map.
//
// The Localizer in pipeline.go chains all stages end to end.
package core

import (
	"context"
	"fmt"

	"hyperear/internal/dsp"
	"hyperear/internal/imu"
	"hyperear/internal/obs"
)

// MSPConfig holds the motion-preprocessing parameters. The defaults are
// the paper's empirical choices (§V-A).
type MSPConfig struct {
	// SMAWindow is the moving-average length in samples (paper: n = 4,
	// giving a ≈15 Hz cutoff at 100 Hz sampling).
	SMAWindow int
	// PowerWindow is the sliding window W of eq. (3) in samples
	// (paper: 4 samples = 40 ms).
	PowerWindow int
	// PowerThreshold is the movement-start power level in (m/s²)²
	// (paper: 0.2).
	PowerThreshold float64
	// QuietSamples is the number m of consecutive sub-threshold samples
	// that ends a movement (paper: m = 8).
	QuietSamples int
	// Obs receives the "msp" stage span and the segment counter; nil
	// disables. NewLocalizer propagates Config.Obs here.
	Obs *obs.Obs
}

// DefaultMSPConfig returns the paper's parameters.
func DefaultMSPConfig() MSPConfig {
	return MSPConfig{SMAWindow: 4, PowerWindow: 4, PowerThreshold: 0.2, QuietSamples: 8}
}

// Validate reports configuration errors.
func (c MSPConfig) Validate() error {
	switch {
	case c.SMAWindow < 1:
		return fmt.Errorf("core: SMA window %d < 1", c.SMAWindow)
	case c.PowerWindow < 1:
		return fmt.Errorf("core: power window %d < 1", c.PowerWindow)
	case c.PowerThreshold <= 0:
		return fmt.Errorf("core: power threshold %v <= 0", c.PowerThreshold)
	case c.QuietSamples < 1:
		return fmt.Errorf("core: quiet samples %d < 1", c.QuietSamples)
	}
	return nil
}

// Segment is a half-open sample range [Start, End) of one movement in an
// IMU trace.
type Segment struct {
	Start, End int
}

// MSPResult is the preprocessed motion data.
type MSPResult struct {
	// Fs is the IMU sampling rate.
	Fs float64
	// AccelY is the smoothed, gravity-free body-y acceleration (the slide
	// axis).
	AccelY []float64
	// AccelZ is the smoothed, gravity-free body-z acceleration (vertical,
	// used for stature changes).
	AccelZ []float64
	// AccelX is the smoothed, gravity-free body-x acceleration.
	AccelX []float64
	// GyroZ is the raw z-axis angular rate (for slide rotation gating).
	GyroZ []float64
	// YawDev is the integrated z-gyro yaw deviation from the session
	// start in radians, with the gyro's zero-rate bias estimated from the
	// initial stationary period and removed. TTL uses it to correct the
	// rotation-induced TDoA error at each anchor position (the
	// "Augmented TDoA with Rotation Error Corrected" input of Fig. 5).
	YawDev []float64
	// Power is the eq. (3) power series of AccelY+AccelZ combined (both
	// slide and stature movements must segment).
	Power []float64
	// Segments are the detected movements, in time order.
	Segments []Segment
}

// PreprocessIMU runs gravity removal, smoothing, and movement segmentation
// on an IMU trace.
func PreprocessIMU(tr *imu.Trace, cfg MSPConfig) (*MSPResult, error) {
	// A fresh Scratch makes the result own its buffers, exactly as the
	// old per-call makes did; the pipeline passes a pooled one instead.
	return preprocessIMU(context.Background(), tr, cfg, new(Scratch))
}

// preprocessIMU is PreprocessIMU writing through s, with the request
// context (trace identity only — segmentation is not cancellable, it is
// far too cheap to interrupt). The returned MSPResult aliases s's
// buffers and is valid only until s is reused or returned to the pool.
func preprocessIMU(ctx context.Context, tr *imu.Trace, cfg MSPConfig, s *Scratch) (*MSPResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sp := cfg.Obs.SpanCtx(ctx, "msp")
	defer sp.End()
	if tr == nil || tr.Len() == 0 {
		sp.AttrStr("error", "empty IMU trace")
		return nil, fmt.Errorf("core: empty IMU trace")
	}
	n := tr.Len()
	m := &s.msp
	m.raw = growF64(m.raw, n)
	m.ax = growF64(m.ax, n)
	m.ay = growF64(m.ay, n)
	m.az = growF64(m.az, n)
	m.gyroZ = growF64(m.gyroZ, n)
	m.combined = growF64(m.combined, n)
	m.power = growF64(m.power, n)

	// Gravity removal + axis extraction straight into scratch: the
	// tr.LinearAccel()/imu.Axis chain this replaces allocated four
	// n-length slices per call.
	for i := range tr.Accel {
		m.raw[i] = tr.Accel[i].X - tr.Gravity[i].X
	}
	dsp.MovingAverageInto(m.ax, m.raw, cfg.SMAWindow)
	for i := range tr.Accel {
		m.raw[i] = tr.Accel[i].Y - tr.Gravity[i].Y
	}
	dsp.MovingAverageInto(m.ay, m.raw, cfg.SMAWindow)
	for i := range tr.Accel {
		m.raw[i] = tr.Accel[i].Z - tr.Gravity[i].Z
	}
	dsp.MovingAverageInto(m.az, m.raw, cfg.SMAWindow)
	for i := range tr.Gyro {
		m.gyroZ[i] = tr.Gyro[i].Z
	}

	// Movement power over the combined in-plane + vertical axes so both
	// slides and stature changes are segmented.
	for i := range m.combined {
		m.combined[i] = m.ay[i]*m.ay[i] + m.az[i]*m.az[i]
	}
	slidingMeanInto(m.power, m.combined, cfg.PowerWindow)
	m.segs = segmentInto(m.segs[:0], m.power, cfg.PowerThreshold, cfg.QuietSamples)
	cfg.Obs.Add(MSegments, uint64(len(m.segs)))
	sp.AttrInt("samples", n)
	sp.AttrInt("segments", len(m.segs))

	m.yawRaw = growF64(m.yawRaw, n)
	m.moving = growBool(m.moving, n)
	m.yawDev = growF64(m.yawDev, n)
	integrateYawDevInto(m.yawDev, m.yawRaw, m.moving, m.gyroZ, tr.Fs, m.segs)

	m.res = MSPResult{
		Fs:       tr.Fs,
		AccelX:   m.ax,
		AccelY:   m.ay,
		AccelZ:   m.az,
		GyroZ:    m.gyroZ,
		YawDev:   m.yawDev,
		Power:    m.power,
		Segments: m.segs,
	}
	return &m.res, nil
}

// integrateYawDevInto integrates the z-gyro to a yaw deviation series in
// out after removing the gyro's zero-rate bias; raw and moving are
// caller-provided staging (all three len(gyroZ)). The bias is estimated
// by fitting a linear trend to the raw integrated yaw over every
// *stationary* sample (outside the movement segments): hand tremor
// contributes bounded, zero-mean yaw at those samples while the bias
// grows linearly, so a fit spanning the whole session separates them far
// better than averaging one short window. Only the before/after
// *difference* of the result within a slide enters the TDoA correction,
// so the intercept is irrelevant.
//
// The assumption is zero net commanded rotation — true for slide sessions
// (the user holds the in-direction orientation). Rotation sweeps violate
// it, but the SDF path integrates raw gyro itself and never reads YawDev.
//
//hyperearvet:zeroalloc
func integrateYawDevInto(out, raw []float64, moving []bool, gyroZ []float64, fs float64, segs []Segment) {
	n := len(gyroZ)
	yaw := 0.0
	dt := 1 / fs
	for i, w := range gyroZ {
		raw[i] = yaw
		yaw += w * dt
	}
	// Stationary mask: outside segments, with a small guard band.
	const guard = 5
	for i := range moving {
		moving[i] = false
	}
	for _, s := range segs {
		for i := s.Start - guard; i < s.End+guard; i++ {
			if i >= 0 && i < n {
				moving[i] = true
			}
		}
	}
	var sx, sy, sxx, sxy, cnt float64
	for i := 0; i < n; i++ {
		if moving[i] {
			continue
		}
		x := float64(i) * dt
		sx += x
		sy += raw[i]
		sxx += x * x
		sxy += x * raw[i]
		cnt++
	}
	den := cnt*sxx - sx*sx
	if cnt < 10 || den == 0 {
		copy(out, raw)
		return
	}
	slope := (cnt*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / cnt
	for i := range out {
		out[i] = raw[i] - intercept - slope*float64(i)*dt
	}
}

// meanYawDev averages the yaw deviation over the time window [lo, hi]
// seconds (clamped to the trace).
func (m *MSPResult) meanYawDev(lo, hi float64) float64 {
	i0 := int(lo * m.Fs)
	i1 := int(hi*m.Fs) + 1
	if i0 < 0 {
		i0 = 0
	}
	if i1 > len(m.YawDev) {
		i1 = len(m.YawDev)
	}
	if i0 >= i1 {
		if i0 >= len(m.YawDev) {
			i0 = len(m.YawDev) - 1
		}
		if i0 < 0 {
			return 0
		}
		return m.YawDev[i0]
	}
	var s float64
	for _, v := range m.YawDev[i0:i1] {
		s += v
	}
	return s / float64(i1-i0)
}

// slidingMeanInto writes into out (len(x)) the forward-looking window
// mean of eq. (3): P(t) = (1/W)·Σ_{n=t..t+W-1} x[n], truncated at the
// tail. out must not alias x.
//
//hyperearvet:zeroalloc
func slidingMeanInto(out, x []float64, w int) {
	var sum float64
	// Initialize with the first window.
	for i := 0; i < w && i < len(x); i++ {
		sum += x[i]
	}
	for t := range x {
		n := w
		if t+w > len(x) {
			n = len(x) - t
		}
		out[t] = sum / float64(n)
		// Slide: drop x[t], add x[t+w].
		sum -= x[t]
		if t+w < len(x) {
			sum += x[t+w]
		}
	}
}

// segmentInto finds movements, appending them to segs (pass segs[:0] to
// reuse): a movement starts when power exceeds thresh and ends after
// quiet consecutive sub-threshold samples (§V-A-2).
//
//hyperearvet:zeroalloc
func segmentInto(segs []Segment, power []float64, thresh float64, quiet int) []Segment {
	inMove := false
	start := 0
	below := 0
	for i, p := range power {
		if !inMove {
			if p > thresh {
				inMove = true
				start = i
				below = 0
			}
			continue
		}
		if p <= thresh {
			below++
			if below >= quiet {
				segs = append(segs, Segment{Start: start, End: i - quiet + 1})
				inMove = false
			}
		} else {
			below = 0
		}
	}
	if inMove {
		segs = append(segs, Segment{Start: start, End: len(power)})
	}
	return segs
}

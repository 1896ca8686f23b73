package core

import (
	"fmt"
	"math"

	"hyperear/internal/obs"
)

// PDEConfig holds the displacement-estimation parameters.
type PDEConfig struct {
	// EdgePad extends each segment by this many samples on both sides so
	// the zero-velocity anchors sit in the truly-at-rest region.
	EdgePad int
	// MinSlideDist is the minimum estimated slide length in meters a
	// slide must reach to be used for localization (paper: slides with an
	// estimated distance over 50 cm are auto-selected, §VII-B). Zero
	// disables the gate (used by the short-slide experiments).
	MinSlideDist float64
	// MaxZRotationRad is the maximum z-axis rotation during a slide for
	// it to be used (paper: 20°). Zero disables the gate.
	MaxZRotationRad float64
	// Obs receives the movement-classification counters and the
	// drift-slope magnitude histogram; nil disables. NewLocalizer
	// propagates Config.Obs here.
	Obs *obs.Obs
}

// DefaultPDEConfig returns the paper's gates: slides over 50 cm with less
// than 20° of z rotation.
func DefaultPDEConfig() PDEConfig {
	return PDEConfig{
		EdgePad:         3,
		MinSlideDist:    0.50,
		MaxZRotationRad: 20 * math.Pi / 180,
	}
}

// MovementKind classifies a segmented movement.
type MovementKind int

// Movement kinds: slides move along the body y axis, stature changes along
// z; anything ambiguous is rejected.
const (
	KindSlide MovementKind = iota + 1
	KindStature
	KindRejected
)

// String implements fmt.Stringer.
func (k MovementKind) String() string {
	switch k {
	case KindSlide:
		return "slide"
	case KindStature:
		return "stature"
	case KindRejected:
		return "rejected"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// SlideEstimate is the PDE output for one segmented movement.
type SlideEstimate struct {
	// Segment is the (padded) sample range in the IMU trace.
	Segment Segment
	// Kind classifies the movement.
	Kind MovementKind
	// RejectReason explains a KindRejected classification in prose.
	RejectReason string
	// RejectCode is the machine-readable reason code behind RejectReason
	// (the Reason* constants), carried into Diagnostics and the rejected-
	// slide counters.
	RejectCode string
	// StartTime and EndTime are the movement bounds in seconds.
	StartTime, EndTime float64
	// DispY is the signed displacement along body y in meters (the D' of
	// eq. 5/6 with its sign).
	DispY float64
	// DispZ is the signed vertical displacement (the H of eq. 7 for
	// stature movements).
	DispZ float64
	// PeakVel is the peak |velocity| along the dominant axis in m/s.
	PeakVel float64
	// ZRotation is the net z-axis rotation during the movement in
	// radians (from integrating the gyro).
	ZRotation float64
	// DriftSlope is the estimated accumulative-error slope err_a of
	// eq. (4) on the dominant axis in m/s² — reported for diagnostics and
	// the Fig. 9 reproduction.
	DriftSlope float64
}

// CorrectVelocity implements the paper's §V-B drift removal: integrate the
// acceleration to a velocity series, then subtract the linear error model
// anchored on zero true velocity at both ends (eq. 4). It returns the
// corrected velocity series and the estimated error slope err_a.
func CorrectVelocity(accel []float64, fs float64) (vel []float64, slope float64) {
	return correctVelocityInto(nil, accel, fs)
}

// correctVelocityInto is CorrectVelocity writing into dst (grown/reused
// as needed) and returning it, so a run's movements reuse one velocity
// buffer per axis.
//
//hyperearvet:zeroalloc
func correctVelocityInto(dst, accel []float64, fs float64) (vel []float64, slope float64) {
	vel = growF64(dst, len(accel))
	dt := 1 / fs
	var v float64
	for i, a := range accel {
		v += a * dt
		vel[i] = v
	}
	if len(vel) < 2 {
		return vel, 0
	}
	// err_a = v(t2) / (t2 - t1); v*(t) = v(t) - err_a·(t - t1).
	span := float64(len(vel)-1) * dt
	slope = vel[len(vel)-1] / span
	for i := range vel {
		vel[i] -= slope * float64(i) * dt
	}
	return vel, slope
}

// IntegrateDisplacement integrates a velocity series to the net
// displacement in meters.
func IntegrateDisplacement(vel []float64, fs float64) float64 {
	var d float64
	dt := 1 / fs
	for _, v := range vel {
		d += v * dt
	}
	return d
}

// EstimateMovement runs PDE on one segment of preprocessed motion data:
// drift-corrected integration on the y and z axes, movement
// classification, and quality gating.
func EstimateMovement(m *MSPResult, seg Segment, cfg PDEConfig) SlideEstimate {
	return estimateMovement(m, seg, cfg, &pdeScratch{})
}

// estimateMovement is EstimateMovement with a caller-owned scratch slot:
// the pipeline passes its run's scratch, so the per-segment velocity
// buffers are reused instead of reallocated.
func estimateMovement(m *MSPResult, seg Segment, cfg PDEConfig, ps *pdeScratch) SlideEstimate {
	s := pad(seg, cfg.EdgePad, len(m.AccelY))
	ay := m.AccelY[s.Start:s.End]
	az := m.AccelZ[s.Start:s.End]

	vy, slopeY := correctVelocityInto(ps.vy, ay, m.Fs)
	vz, _ := correctVelocityInto(ps.vz, az, m.Fs)
	ps.vy, ps.vz = vy, vz
	dy := IntegrateDisplacement(vy, m.Fs)
	dz := IntegrateDisplacement(vz, m.Fs)

	var zrot float64
	dt := 1 / m.Fs
	for _, w := range m.GyroZ[s.Start:s.End] {
		zrot += w * dt
	}

	est := SlideEstimate{
		Segment:    s,
		StartTime:  float64(s.Start) / m.Fs,
		EndTime:    float64(s.End) / m.Fs,
		DispY:      dy,
		DispZ:      dz,
		ZRotation:  zrot,
		DriftSlope: slopeY,
	}
	cfg.Obs.Observe(MDriftSlope, math.Abs(slopeY))
	ady, adz := math.Abs(dy), math.Abs(dz)
	switch {
	case ady >= 2*adz && ady > 0.02:
		est.Kind = KindSlide
		est.PeakVel = peakAbs(vy)
	case adz >= 2*ady && adz > 0.02:
		est.Kind = KindStature
		est.PeakVel = peakAbs(vz)
	default:
		est.Kind = KindRejected
		est.RejectReason = fmt.Sprintf("ambiguous axis (|dy|=%.3f |dz|=%.3f)", ady, adz)
		est.RejectCode = ReasonPDEAmbiguous
	}

	if est.Kind == KindSlide {
		if cfg.MinSlideDist > 0 && ady < cfg.MinSlideDist {
			est.Kind = KindRejected
			est.RejectReason = fmt.Sprintf("slide %.2f m below minimum %.2f m", ady, cfg.MinSlideDist)
			est.RejectCode = ReasonPDEShort
		} else if cfg.MaxZRotationRad > 0 && math.Abs(zrot) > cfg.MaxZRotationRad {
			est.Kind = KindRejected
			est.RejectReason = fmt.Sprintf("z rotation %.1f° exceeds gate", zrot*180/math.Pi)
			est.RejectCode = ReasonPDERotation
		}
	}
	switch est.Kind {
	case KindSlide:
		cfg.Obs.Inc(MMovementSlide)
	case KindStature:
		cfg.Obs.Inc(MMovementStature)
	default:
		cfg.Obs.Inc(MMovementRejected)
	}
	return est
}

func pad(s Segment, p, n int) Segment {
	s.Start -= p
	s.End += p
	if s.Start < 0 {
		s.Start = 0
	}
	if s.End > n {
		s.End = n
	}
	return s
}

func peakAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

package motion

import (
	"math"
	"math/rand"

	"hyperear/internal/geom"
)

// Tremor is the smooth, band-limited perturbation of an unsupported human
// hand: a sum of random low-frequency harmonics per position axis plus a
// z-axis rotation wobble. A Tremor with zero amplitudes is a no-op and
// models the paper's slide-ruler experiments.
type Tremor struct {
	pos [3][]harmonic
	rot []harmonic
}

type harmonic struct {
	amp, freq, phase float64
}

// NewTremor draws a random tremor realization: posAmp is the positional
// wobble scale per axis in meters at 1 Hz, rotAmpDeg the z-rotation wobble
// scale in degrees at 1 Hz. Physiological hand tremor concentrates in
// 1-12 Hz with displacement falling off roughly as 1/f², which keeps the
// tremor *acceleration* bounded (a few tenths of m/s² for millimeter-scale
// posAmp) — large enough to perturb TDoAs, small enough that the paper's
// 0.2 (m/s²)² segmentation threshold still separates slides from rest.
func NewTremor(rng *rand.Rand, posAmp, rotAmpDeg float64) *Tremor {
	tr := &Tremor{}
	const nHarm = 4
	draw := func(amp float64) []harmonic {
		hs := make([]harmonic, nHarm)
		for i := range hs {
			f := 1 + 11*rng.Float64()
			hs[i] = harmonic{
				amp:   amp * (0.5 + rng.Float64()) * 2 / nHarm / (f * f),
				freq:  f,
				phase: rng.Float64() * 2 * math.Pi,
			}
		}
		return hs
	}
	for a := 0; a < 3; a++ {
		tr.pos[a] = draw(posAmp)
	}
	tr.rot = draw(geom.Radians(rotAmpDeg))
	return tr
}

func evalHarmonics(hs []harmonic, t float64) (val, vel, acc float64) {
	for _, h := range hs {
		w := 2 * math.Pi * h.freq
		s, c := math.Sincos(w*t + h.phase)
		val += h.amp * s
		vel += h.amp * w * c
		acc -= h.amp * w * w * s
	}
	return val, vel, acc
}

// offset returns the positional perturbation and its derivatives plus the
// z-rotation perturbation (angle, rate) at time t.
func (tr *Tremor) offset(t float64) (pos, vel, acc geom.Vec3, rot, rotRate float64) {
	if tr == nil {
		return
	}
	var p, v, a [3]float64
	for axis := 0; axis < 3; axis++ {
		p[axis], v[axis], a[axis] = evalHarmonics(tr.pos[axis], t)
	}
	rot, rotRate, _ = evalHarmonics(tr.rot, t)
	return geom.Vec3{X: p[0], Y: p[1], Z: p[2]},
		geom.Vec3{X: v[0], Y: v[1], Z: v[2]},
		geom.Vec3{X: a[0], Y: a[1], Z: a[2]},
		rot, rotRate
}

// Shaky wraps a base trajectory with a tremor perturbation. Position
// offsets are applied in the world frame; the rotation wobble composes a
// small z-axis rotation onto the base orientation.
type Shaky struct {
	Base   Trajectory
	Tremor *Tremor
}

// Duration implements Trajectory.
func (s *Shaky) Duration() float64 { return s.Base.Duration() }

// Pose implements Trajectory.
func (s *Shaky) Pose(t float64) Pose {
	p := s.Base.Pose(t)
	dp, dv, da, rot, rotRate := s.Tremor.offset(t)
	p.Pos = p.Pos.Add(dp)
	p.Vel = p.Vel.Add(dv)
	p.Acc = p.Acc.Add(da)
	p.Orient = geom.QuatAxisAngle(geom.Vec3{Z: 1}, rot).Mul(p.Orient).Normalize()
	p.AngVel = p.AngVel.Add(geom.Vec3{Z: rotRate})
	return p
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
)

// This file implements the paper's §I remark that HyperEar "can be easily
// extended for 3D localization": instead of the two-stature projection
// (eq. 7), every slide — horizontal or vertical — contributes one
// augmented-TDoA observation per microphone, each constraining the
// speaker to a hyperboloid of revolution around that mic's two rest
// positions. Slides along two non-parallel directions make the
// intersection a point, recovered by damped Gauss-Newton over all
// observations jointly.

// ErrFull3DUnderdetermined is returned when the session lacks movement
// diversity (all slides parallel) or has too few usable observations.
var ErrFull3DUnderdetermined = errors.New("core: full-3D session underdetermined")

// SlideObservation is one microphone's augmented TDoA across one
// movement, with the mic's rest positions in the start body frame.
type SlideObservation struct {
	// Before and After are the mic positions at the two anchors (m).
	Before, After geom.Vec3
	// DeltaD is the measured path-length change |p-After| - |p-Before|
	// in meters (S·Δt').
	DeltaD float64
}

// residual returns the observation residual at candidate position p.
func (o SlideObservation) residual(p geom.Vec3) float64 {
	return p.Dist(o.After) - p.Dist(o.Before) - o.DeltaD
}

// gradient returns ∂residual/∂p.
func (o SlideObservation) gradient(p geom.Vec3) geom.Vec3 {
	return p.Sub(o.After).Normalize().Sub(p.Sub(o.Before).Normalize())
}

// trustRadius bounds how far SolveFull3D may move from its seed (meters).
const trustRadius = 3.0

// SolveFull3D finds the speaker position minimizing the squared residuals
// of all observations by damped Gauss-Newton from guess, confined to a
// trust region of trustRadius around the guess. It needs at least three
// observations with non-degenerate geometry and a guess within
// trustRadius of the answer.
func SolveFull3D(obs []SlideObservation, guess geom.Vec3) (geom.Vec3, error) {
	if len(obs) < 3 {
		return geom.Vec3{}, fmt.Errorf("%w: %d observations", ErrFull3DUnderdetermined, len(obs))
	}
	p := guess
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		// Normal equations: (JᵀJ) δ = -Jᵀr.
		var jtj [3][3]float64
		var jtr [3]float64
		var cost float64
		for _, o := range obs {
			r := o.residual(p)
			g := o.gradient(p)
			cost += r * r
			row := [3]float64{g.X, g.Y, g.Z}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					jtj[i][j] += row[i] * row[j]
				}
				jtr[i] += row[i] * r
			}
		}
		// Levenberg damping keeps the step sane far from the optimum.
		lambda := 1e-9 + 1e-3*cost
		for i := 0; i < 3; i++ {
			jtj[i][i] += lambda
		}
		dx, ok := solve3(jtj, [3]float64{-jtr[0], -jtr[1], -jtr[2]})
		if !ok {
			return geom.Vec3{}, fmt.Errorf("%w: singular normal equations", ErrFull3DUnderdetermined)
		}
		step := geom.Vec3{X: dx[0], Y: dx[1], Z: dx[2]}
		// Limit step length for stability.
		if n := step.Norm(); n > 2 {
			step = step.Scale(2 / n)
		}
		p = p.Add(step)
		// Trust region: weakly conditioned sessions (nearly parallel
		// hyperboloids) have cost valleys running toward far-field ghosts
		// that fit the noisy observations slightly *better* than the true
		// position, so the iterate is confined to a ball around the seed
		// (which comes from the ambiguity-free 2D stage). The projection
		// is a hard constraint, not a prior — exact data inside the ball
		// is solved without bias.
		if off := p.Sub(guess); off.Norm() > trustRadius {
			p = guess.Add(off.Scale(trustRadius / off.Norm()))
		}
		p.Z = geom.Clamp(p.Z, -3, 3)
		if step.Norm() < 1e-9 {
			break
		}
	}
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) {
		return geom.Vec3{}, fmt.Errorf("%w: diverged", ErrFull3DUnderdetermined)
	}
	// A solution pinned to the trust boundary means the data preferred a
	// far ghost: the session lacks the geometric diversity to resolve 3D.
	if p.Sub(guess).Norm() > trustRadius-1e-6 {
		return geom.Vec3{}, fmt.Errorf("%w: solution pinned to trust boundary", ErrFull3DUnderdetermined)
	}
	return p, nil
}

// solve3 solves a 3x3 linear system by Cramer's rule.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	det := det3(a)
	if math.Abs(det) < 1e-18 {
		return [3]float64{}, false
	}
	var out [3]float64
	for col := 0; col < 3; col++ {
		m := a
		for row := 0; row < 3; row++ {
			m[row][col] = b[row]
		}
		out[col] = det3(m) / det
	}
	return out, true
}

func det3(a [3][3]float64) float64 {
	return a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
}

// ResultFull3D is the output of the full-3D extension.
type ResultFull3D struct {
	// Pos is the speaker estimate in the start body frame (x toward the
	// speaker per SDF, y the horizontal slide axis, z up).
	Pos geom.Vec3
	// Observations is the number of augmented-TDoA constraints fused.
	Observations int
	// RMSResidual is the root-mean-square residual at the solution (m),
	// a goodness-of-fit indicator.
	RMSResidual float64
	// Movements echoes the PDE estimates.
	Movements []SlideEstimate
	// ASP echoes the acoustic preprocessing result.
	ASP *ASPResult
}

// LocateFull3D runs the full-3D extension on a session whose protocol
// mixes horizontal (body-y) and vertical slides. Unlike Locate3D, no
// two-stature projection is involved: the speaker's complete relative 3D
// position falls out of the joint solve.
func (l *Localizer) LocateFull3D(rec *mic.Recording, tr *imu.Trace) (*ResultFull3D, error) {
	return l.LocateFull3DContext(context.Background(), rec, tr)
}

// LocateFull3DContext is LocateFull3D with cancellation (see
// Locate2DContext).
func (l *Localizer) LocateFull3DContext(ctx context.Context, rec *mic.Recording, tr *imu.Trace) (*ResultFull3D, error) {
	sp := l.cfg.Obs.SpanCtx(ctx, "full3d")
	defer sp.End()
	scr := getScratch()
	defer putScratch(scr)
	aspRes, msp, ests, err := l.analyzeSession(ctx, rec.Channels(), tr, [2]dsp.EnvelopePrefix{}, scr)
	if err != nil {
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	d := l.cfg.MicSeparation
	gap := l.cfg.TTL.MaxAnchorGap
	rot := d / 2 / l.cfg.SpeedOfSound

	var obs []SlideObservation
	sawVertical, sawHorizontal := false, false
	y, z := 0.0, 0.0
	for _, est := range ests {
		var moveY, moveZ float64
		switch est.Kind {
		case KindSlide:
			moveY = est.DispY
		case KindStature:
			moveZ = est.DispZ
		default:
			y += est.DispY
			z += est.DispZ
			continue
		}
		before, after, aerr := anchorBeacons(aspRes.Beacons, est.StartTime, est.EndTime, gap, aspRes.PeriodEff)
		if aerr != nil {
			y += moveY
			z += moveZ
			continue
		}
		yawB := msp.meanYawDev(est.StartTime-gap, est.StartTime)
		yawA := msp.meanYawDev(est.EndTime, est.EndTime+gap)
		n := after.Seq - before.Seq
		if n <= 0 {
			y += moveY
			z += moveZ
			continue
		}
		// Rotation-corrected per-mic augmented TDoAs (same correction as
		// LocalizeSlide).
		aug1 := (after.T1 - rot*yawA) - (before.T1 - rot*yawB) - float64(n)*aspRes.PeriodEff
		aug2 := (after.T2 + rot*yawA) - (before.T2 + rot*yawB) - float64(n)*aspRes.PeriodEff

		m1b := geom.Vec3{Y: y + d/2, Z: z}
		m2b := geom.Vec3{Y: y - d/2, Z: z}
		m1a := geom.Vec3{Y: y + moveY + d/2, Z: z + moveZ}
		m2a := geom.Vec3{Y: y + moveY - d/2, Z: z + moveZ}
		obs = append(obs,
			SlideObservation{Before: m1b, After: m1a, DeltaD: aug1 * l.cfg.SpeedOfSound},
			SlideObservation{Before: m2b, After: m2a, DeltaD: aug2 * l.cfg.SpeedOfSound},
		)
		if est.Kind == KindSlide {
			sawHorizontal = true
		} else {
			sawVertical = true
		}
		y += moveY
		z += moveZ
	}
	if !sawHorizontal || !sawVertical {
		return nil, fmt.Errorf("%w: need both horizontal and vertical slides (got h=%v v=%v)",
			ErrFull3DUnderdetermined, sawHorizontal, sawVertical)
	}
	// Seed the solver from the per-slide 2D fixes: far-field ghosts along
	// the hyperboloid asymptotes fit the observations almost as well as
	// the true position, so Gauss-Newton must start inside the true
	// basin. The 2D stage is immune to that ambiguity (it intersects the
	// branches directly).
	guess := geom.Vec3{X: l.cfg.TTL.InitialRange}
	if fixes, _, serr := l.localizeSlides(ctx, aspRes, msp, ests); serr == nil && len(fixes) > 0 {
		ls := make([]float64, len(fixes))
		ys := make([]float64, len(fixes))
		for i, f := range fixes {
			ls[i] = f.L
			ys[i] = f.Pos.Y
		}
		guess = geom.Vec3{X: aggregate(ls), Y: aggregate(ys)}
	}
	pos, err := SolveFull3D(obs, guess)
	if err != nil {
		sp.AttrStr("error", err.Error())
		return nil, err
	}
	sp.AttrInt("observations", len(obs))
	// Fold the mirrored solution (x < 0) onto the SDF side.
	if pos.X < 0 {
		pos.X = -pos.X
	}
	var ss float64
	for _, o := range obs {
		r := o.residual(pos)
		ss += r * r
	}
	rms := math.Sqrt(ss / float64(len(obs)))
	// A fit that cannot explain the observations to within a few
	// centimeters found a ghost (e.g. clamped against the solver box);
	// surface that instead of a silently wrong position.
	if rms > 0.05 {
		return nil, fmt.Errorf("%w: residual %.3f m", ErrFull3DUnderdetermined, rms)
	}
	return &ResultFull3D{
		Pos:          pos,
		Observations: len(obs),
		RMSResidual:  rms,
		Movements:    ests,
		ASP:          aspRes,
	}, nil
}
